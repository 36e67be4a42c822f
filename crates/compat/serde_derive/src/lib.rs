//! Derive-macro half of the in-tree `serde` shim.
//!
//! Generates genuine field-by-field `Serialize`/`Deserialize`
//! implementations against the shim's `Value` data model — named-field
//! structs become maps in declaration order, newtype structs are
//! transparent, unit enum variants become strings and data-carrying
//! variants become single-entry maps (serde's external tagging). One
//! field attribute is supported: `#[serde(skip_serializing_if = "path")]`
//! omits the field when `path(&field)` is true (absent fields read back
//! as `null`, so `Option::is_none` round-trips). The parser is
//! hand-rolled over `proc_macro::TokenStream` (no `syn`), which covers
//! every plain (non-generic) type in this workspace; generic items and
//! any other `serde` attribute get no impl rather than a wrong one.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Some(item) => gen_serialize(&item).parse().unwrap_or_default(),
        None => TokenStream::new(),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Some(item) => gen_deserialize(&item).parse().unwrap_or_default(),
        None => TokenStream::new(),
    }
}

// ---------------------------------------------------------------------------
// A minimal item model.
// ---------------------------------------------------------------------------

/// A named field and its `skip_serializing_if` predicate path, if any.
struct Field {
    name: String,
    skip_if: Option<String>,
}

enum Fields {
    /// Named fields, in declaration order.
    Named(Vec<Field>),
    /// Tuple fields (arity only — the generated code never names types).
    Tuple(usize),
    /// No payload.
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// Parses `struct`/`enum` definitions far enough to know the name, the
/// field names and the variant shapes. Returns `None` for shapes the
/// generator does not support (generics, unions).
fn parse_item(input: TokenStream) -> Option<Item> {
    let mut tokens = input.into_iter().peekable();

    // Skip attributes and qualifiers until `struct` / `enum`.
    let mut keyword = None;
    while let Some(tt) = tokens.next() {
        match tt {
            TokenTree::Punct(ref p) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            TokenTree::Ident(ref id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    keyword = Some(s);
                    break;
                }
                if s == "union" {
                    return None;
                }
            }
            _ => {}
        }
    }
    let keyword = keyword?;
    let name = match tokens.next() {
        Some(TokenTree::Ident(n)) => n.to_string(),
        _ => return None,
    };

    // Bail on generic items: a blind impl would be wrong.
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return None;
        }
    }

    if keyword == "enum" {
        let body = next_group(&mut tokens, Delimiter::Brace)?;
        let variants = parse_variants(body)?;
        return Some(Item::Enum { name, variants });
    }

    // Struct: named `{...}`, tuple `(...);` or unit `;`.
    match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Some(Item::Struct {
            fields: Fields::Named(parse_named_fields(g.stream())?),
            name,
        }),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Some(Item::Struct {
                fields: Fields::Tuple(count_tuple_fields(g.stream())),
                name,
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Some(Item::Struct {
            fields: Fields::Unit,
            name,
        }),
        _ => None,
    }
}

fn next_group(
    tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
    delim: Delimiter,
) -> Option<TokenStream> {
    loop {
        match tokens.next()? {
            TokenTree::Group(g) if g.delimiter() == delim => return Some(g.stream()),
            TokenTree::Punct(p) if p.as_char() == '#' => {
                tokens.next();
            }
            TokenTree::Ident(_) => {}
            _ => return None,
        }
    }
}

/// Splits a brace-group body into top-level comma-separated chunks.
/// Delimited groups arrive as single `TokenTree::Group`s, so only `<`/`>`
/// need explicit depth tracking.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut depth = 0i32;
    for tt in stream {
        if let TokenTree::Punct(ref p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    chunks.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        chunks.last_mut().expect("non-empty").push(tt);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// `#[attr] pub(crate) name: Type` → `name`, per top-level chunk.
fn parse_named_fields(stream: TokenStream) -> Option<Vec<Field>> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| parse_field(&chunk))
        .collect()
}

fn parse_field(chunk: &[TokenTree]) -> Option<Field> {
    let mut skip_if = None;
    let mut i = 0;
    while i < chunk.len() {
        match &chunk[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(attr)) = chunk.get(i + 1) {
                    if let Some(path) = serde_attr(attr.stream())? {
                        skip_if = Some(path);
                    }
                }
                i += 2;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(_)) = chunk.get(i) {
                    i += 1; // pub(crate)
                }
            }
            TokenTree::Ident(id) => {
                // The field name is the ident right before the `:`.
                return match chunk.get(i + 1) {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => Some(Field {
                        name: id.to_string(),
                        skip_if,
                    }),
                    _ => None,
                };
            }
            _ => return None,
        }
    }
    None
}

/// Reads one attribute body: `Some(None)` for a non-`serde` attribute,
/// `Some(Some(path))` for `serde(skip_serializing_if = "path")`, and
/// `None` for any other `serde` attribute.
fn serde_attr(attr: TokenStream) -> Option<Option<String>> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "serde" => {
            let args: Vec<TokenTree> = args.stream().into_iter().collect();
            match args.as_slice() {
                [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(path)]
                    if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
                {
                    let path = path.to_string();
                    Some(Some(path.strip_prefix('"')?.strip_suffix('"')?.to_string()))
                }
                _ => None,
            }
        }
        _ => Some(None),
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_variants(stream: TokenStream) -> Option<Vec<Variant>> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| {
            let mut i = 0;
            // Skip attributes (doc comments included).
            while let Some(TokenTree::Punct(p)) = chunk.get(i) {
                if p.as_char() != '#' {
                    break;
                }
                i += 2;
            }
            let name = match chunk.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return None,
            };
            let fields = match chunk.get(i + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                None => Fields::Unit,
                // `= discriminant` and anything else unsupported.
                _ => return None,
            };
            Some(Variant { name, fields })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------------

/// `{ "field": to_value(<prefix>field), ... }` map construction, where
/// `<prefix>field` is a reference to the field; skippable fields are
/// pushed only when their predicate is false.
fn ser_named(fields: &[Field], prefix: &str) -> String {
    let pushes: Vec<String> = fields
        .iter()
        .map(|Field { name: f, skip_if }| {
            let push = format!(
                "fields.push((::std::string::String::from(\"{f}\"), \
                 serde::Serialize::to_value({prefix}{f})));"
            );
            match skip_if {
                Some(path) => format!("if !{path}({prefix}{f}) {{ {push} }}"),
                None => push,
            }
        })
        .collect();
    format!(
        "{{ let mut fields = ::std::vec::Vec::with_capacity({}); {} serde::Value::Map(fields) }}",
        fields.len(),
        pushes.join(" ")
    )
}

/// Field-by-field struct-literal body for deserialization.
fn de_named(fields: &[Field], ty_path: &str, source: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|Field { name: f, .. }| format!("{f}: serde::field({source}, \"{f}\")?"))
        .collect();
    format!("{ty_path} {{ {} }}", inits.join(", "))
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => ser_named(fs, "&self."),
                Fields::Tuple(1) => "serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("serde::Value::Seq(::std::vec![{}])", items.join(", "))
                }
                Fields::Unit => "serde::Value::Null".to_string(),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => \
                             serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(f0) => \
                             serde::variant(\"{vn}\", serde::Serialize::to_value(f0)),"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => serde::variant(\"{vn}\", \
                                 serde::Value::Seq(::std::vec![{}])),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Fields::Named(fs) => {
                            let map = ser_named(fs, "");
                            let binds: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => serde::variant(\"{vn}\", {map}),",
                                binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join(" ")))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn to_value(&self) -> serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let lit = de_named(fs, name, "value");
                    format!(
                        "match value {{\n\
                         serde::Value::Map(_) => ::core::result::Result::Ok({lit}),\n\
                         other => ::core::result::Result::Err(\
                         serde::Error::invalid_type(\"map\", other)),\n\
                         }}"
                    )
                }
                Fields::Tuple(1) => format!(
                    "::core::result::Result::Ok({name}(\
                     serde::Deserialize::from_value(value)?))"
                ),
                Fields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|i| {
                            format!(
                                "serde::Deserialize::from_value(&items[{i}])\
                                 .map_err(|e| e.at(\"{i}\"))?"
                            )
                        })
                        .collect();
                    format!(
                        "{{ let items = serde::seq_of(value, \"{name}\", {n})?;\n\
                         ::core::result::Result::Ok({name}({})) }}",
                        inits.join(", ")
                    )
                }
                Fields::Unit => format!("::core::result::Result::Ok({name})"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::core::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    let build = match &v.fields {
                        Fields::Unit => return None,
                        Fields::Tuple(1) => format!(
                            "::core::result::Result::Ok({name}::{vn}(\
                             serde::Deserialize::from_value(payload)\
                             .map_err(|e| e.at(\"{vn}\"))?))"
                        ),
                        Fields::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!(
                                        "serde::Deserialize::from_value(&items[{i}])\
                                         .map_err(|e| e.at(\"{vn}\"))?"
                                    )
                                })
                                .collect();
                            format!(
                                "{{ let items = serde::seq_of(payload, \"{name}::{vn}\", {n})?;\n\
                                 ::core::result::Result::Ok({name}::{vn}({})) }}",
                                inits.join(", ")
                            )
                        }
                        Fields::Named(fs) => format!(
                            "::core::result::Result::Ok({})",
                            de_named(fs, &format!("{name}::{vn}"), "payload")
                        ),
                    };
                    Some(format!(
                        "::core::option::Option::Some((\"{vn}\", payload)) => {build},"
                    ))
                })
                .collect();
            let body = format!(
                "match value {{\n\
                 serde::Value::Str(s) => match s.as_str() {{\n\
                 {units}\n\
                 other => ::core::result::Result::Err(\
                 serde::Error::unknown_variant(\"{name}\", other)),\n\
                 }},\n\
                 _ => match serde::variant_parts(value) {{\n\
                 {datas}\n\
                 ::core::option::Option::Some((other, _)) => \
                 ::core::result::Result::Err(\
                 serde::Error::unknown_variant(\"{name}\", other)),\n\
                 ::core::option::Option::None => ::core::result::Result::Err(\
                 serde::Error::invalid_type(\"{name} variant\", value)),\n\
                 }},\n\
                 }}",
                units = unit_arms.join("\n"),
                datas = data_arms.join("\n"),
            );
            (name, body)
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn from_value(value: &serde::Value) \
         -> ::core::result::Result<{name}, serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}
