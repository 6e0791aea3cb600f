//! Offline stand-in for `serde_derive`.
//!
//! Parses the deriving item with nothing but `proc_macro` (no syn /
//! quote, which are unavailable offline) and emits an implementation of
//! the workspace's `serde::Serialize` shim trait, which models values
//! as a JSON tree. Supports the shapes this repository actually derives
//! on: non-generic named-field structs, tuple structs, unit structs,
//! and enums whose variants are unit (optionally with explicit
//! discriminants), tuple, or struct-like.
//!
//! `#[derive(Deserialize)]` is accepted and expands to nothing, so the
//! shim mirrors serde's API; no code in the workspace deserializes.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the `serde::Serialize` shim trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let pairs = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect::<Vec<_>>()
                .join(", ");
            format!("::serde::Value::Object(::std::vec![{pairs}])")
        }
        Shape::TupleStruct(n) => {
            if *n == 1 {
                // Newtype structs serialize transparently, like serde.
                "::serde::Serialize::to_value(&self.0)".to_string()
            } else {
                let items = (0..*n)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("::serde::Value::Array(::std::vec![{items}])")
            }
        }
        Shape::UnitStruct => "::serde::Value::Object(::std::vec![])".to_string(),
        Shape::Enum(variants) => {
            let arms = variants
                .iter()
                .map(|v| variant_arm(&item.name, v))
                .collect::<Vec<_>>()
                .join("\n");
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{\n  fn to_value(&self) -> ::serde::Value {{\n    {}\n  }}\n}}",
        item.name, body
    )
    .parse()
    .expect("serde_derive shim generated invalid Rust")
}

/// Accept `#[derive(Deserialize)]` as a no-op.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

fn variant_arm(ty: &str, v: &Variant) -> String {
    match &v.shape {
        VariantShape::Unit => format!(
            "{ty}::{name} => ::serde::Value::String(\"{name}\".to_string()),",
            name = v.name
        ),
        VariantShape::Tuple(n) => {
            let binds = (0..*n).map(|i| format!("f{i}")).collect::<Vec<_>>();
            let inner = if *n == 1 {
                "::serde::Serialize::to_value(f0)".to_string()
            } else {
                let items = binds
                    .iter()
                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("::serde::Value::Array(::std::vec![{items}])")
            };
            format!(
                "{ty}::{name}({binds}) => ::serde::Value::Object(::std::vec![(\"{name}\".to_string(), {inner})]),",
                name = v.name,
                binds = binds.join(", ")
            )
        }
        VariantShape::Named(fields) => {
            let binds = fields.join(", ");
            let pairs = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{ty}::{name} {{ {binds} }} => ::serde::Value::Object(::std::vec![(\"{name}\".to_string(), ::serde::Value::Object(::std::vec![{pairs}]))]),",
                name = v.name
            )
        }
    }
}

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip attributes (`#[...]`) and visibility / misc keywords until the
    // `struct` / `enum` keyword.
    let mut kind = None;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2, // '#' + [...]
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    kind = Some(s);
                    i += 1;
                    break;
                }
                i += 1; // pub / crate-visibility idents
            }
            _ => i += 1,
        }
    }
    let kind = kind.expect("serde_derive shim: no struct/enum keyword");
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic types are not supported (type {name})");
        }
    }
    let shape = if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            _ => Shape::UnitStruct,
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: enum {name} without body: {other:?}"),
        }
    };
    Item { name, shape }
}

/// Split a token stream on commas at angle-bracket depth zero.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle = 0i32;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Field name = the ident immediately before the first top-level `:`
/// (skipping attributes and visibility).
fn field_name(tokens: &[TokenTree]) -> Option<String> {
    let mut i = 0;
    let mut last_ident = None;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                // Skip `pub(crate)`-style restrictions.
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                last_ident = Some(id.to_string());
                i += 1;
            }
            TokenTree::Punct(p) if p.as_char() == ':' => return last_ident,
            _ => i += 1,
        }
    }
    None
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level(stream)
        .iter()
        .filter_map(|f| field_name(f))
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .into_iter()
        .filter_map(|v| parse_variant(&v))
        .collect()
}

fn parse_variant(tokens: &[TokenTree]) -> Option<Variant> {
    let mut i = 0;
    // Skip attributes / doc comments.
    while let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '#' {
            i += 2;
        } else {
            break;
        }
    }
    let name = match tokens.get(i)? {
        TokenTree::Ident(id) => id.to_string(),
        _ => return None,
    };
    i += 1;
    let shape = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            VariantShape::Tuple(count_tuple_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            VariantShape::Named(parse_named_fields(g.stream()))
        }
        // Unit, possibly with `= discriminant` (skipped: serialization
        // uses the variant name, not the value).
        _ => VariantShape::Unit,
    };
    Some(Variant { name, shape })
}
