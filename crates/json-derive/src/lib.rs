//! `#[derive(ToJson)]` for `t2opt_core::json::ToJson` (re-exported there;
//! derive through that path, not this crate). A small dependency-free
//! implementation (no `syn`/`quote`) covering exactly the shapes this
//! repository writes: structs with named fields, tuple and unit structs,
//! and enums with unit, tuple and struct variants. No generics, no helper
//! attributes.
//!
//! The generated `write_json` appends the JSON text straight to the output
//! string: literal text (braces, keys, variant names) as one `push_str`
//! per run, each field through its own `ToJson` impl. The byte rules are
//! those of `t2opt_core::json`'s module docs.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derives `t2opt_core::json::ToJson` for non-generic structs and enums.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    gen_to_json(&name, &shape)
        .parse()
        .expect("json-derive generated an invalid ToJson impl")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> (String, Shape) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    // Skip outer attributes (`#[...]`, doc comments) and visibility.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("ToJson derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("ToJson derive: expected item name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("ToJson derive: generic type `{name}` is not supported");
        }
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("ToJson derive: unsupported struct body {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("ToJson derive: unsupported enum body {other:?}"),
        },
        other => panic!("ToJson derive: unsupported item kind `{other}`"),
    };
    (name, shape)
}

/// Parses `name: Type, ...` fields, skipping attributes and visibility;
/// commas inside generic arguments are angle-depth-tracked.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                fields.push(id.to_string());
                i += 1;
                match tokens.get(i) {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
                    other => panic!("ToJson derive: expected `:` after field, got {other:?}"),
                }
                i = skip_type(&tokens, i);
            }
            other => panic!("ToJson derive: unexpected token in fields: {other:?}"),
        }
    }
    fields
}

/// Advances past a type up to (and including) the next top-level `,`.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Counts the fields of a tuple struct/variant (attributes such as doc
/// comments on the fields are ignored).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0usize;
    let mut depth = 0i32;
    let mut segment_has_type = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 2;
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if segment_has_type {
                    count += 1;
                }
                segment_has_type = false;
                i += 1;
                continue;
            }
            _ => segment_has_type = true,
        }
        i += 1;
    }
    if segment_has_type {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) => {
                let name = id.to_string();
                i += 1;
                let kind = match tokens.get(i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        i += 1;
                        VariantKind::Tuple(count_tuple_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        i += 1;
                        VariantKind::Struct(parse_named_fields(g.stream()))
                    }
                    _ => VariantKind::Unit,
                };
                // Skip a possible discriminant and the separating comma.
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
                variants.push(Variant { name, kind });
            }
            other => panic!("ToJson derive: unexpected token in enum body: {other:?}"),
        }
    }
    variants
}

// ------------------------------------------------------------- generation

/// The statements of one generated `write_json` body. Adjacent literal
/// text is merged into a single `push_str`.
#[derive(Default)]
struct Body {
    code: String,
    text: String,
}

impl Body {
    fn text(&mut self, text: &str) {
        self.text.push_str(text);
    }

    /// Writes the value of `expr` (a reference) through its `ToJson` impl.
    fn value(&mut self, expr: &str) {
        self.flush();
        self.code += &format!("::t2opt_core::json::ToJson::write_json({expr}, __out);\n");
    }

    /// `{"f":v,…}` in declaration order; `access(f)` is a reference to `f`.
    fn object(&mut self, fields: &[String], access: impl Fn(&str) -> String) {
        self.text("{");
        for (k, f) in fields.iter().enumerate() {
            if k > 0 {
                self.text(",");
            }
            self.text(&format!("\"{f}\":"));
            self.value(&access(f));
        }
        self.text("}");
    }

    /// `[v,…]`.
    fn array(&mut self, values: &[String]) {
        self.text("[");
        for (k, v) in values.iter().enumerate() {
            if k > 0 {
                self.text(",");
            }
            self.value(v);
        }
        self.text("]");
    }

    fn flush(&mut self) {
        if !self.text.is_empty() {
            self.code += &format!("__out.push_str({:?});\n", self.text);
            self.text.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

fn gen_to_json(name: &str, shape: &Shape) -> String {
    let mut b = Body::default();
    match shape {
        Shape::UnitStruct => b.text("null"),
        Shape::NamedStruct(fields) => b.object(fields, |f| format!("&self.{f}")),
        Shape::TupleStruct(1) => b.value("&self.0"),
        Shape::TupleStruct(n) => {
            b.array(&(0..*n).map(|k| format!("&self.{k}")).collect::<Vec<_>>())
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let mut arm = Body::default();
                let pattern = match &v.kind {
                    VariantKind::Unit => {
                        arm.text(&format!("\"{vname}\""));
                        String::new()
                    }
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        arm.text(&format!("{{\"{vname}\":"));
                        if *n == 1 {
                            arm.value("__f0");
                        } else {
                            arm.array(&binders);
                        }
                        arm.text("}");
                        format!("({})", binders.join(", "))
                    }
                    VariantKind::Struct(fields) => {
                        arm.text(&format!("{{\"{vname}\":"));
                        arm.object(fields, str::to_string);
                        arm.text("}");
                        format!(" {{ {} }}", fields.join(", "))
                    }
                };
                arms += &format!("{name}::{vname}{pattern} => {{\n{}}}\n", arm.finish());
            }
            b.code = format!("match self {{\n{arms}}}\n");
        }
    }
    format!(
        "impl ::t2opt_core::json::ToJson for {name} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{\n{}}}\n\
         }}",
        b.finish()
    )
}
