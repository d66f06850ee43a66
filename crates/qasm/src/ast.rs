//! The parsed forms the parser hands to the lowerer: a gate call and the
//! condition of an `if`. There is no statement tree; every other
//! statement is lowered from its tokens as it is parsed.
//!
//! Names borrow the source, and everything carries a [`Span`] so semantic
//! diagnostics point at source, not at the lowered IR. The parser
//! guarantees structural sanity only; name resolution, arity checks and
//! angle folding happen in [`crate::lower`].

use crate::diag::Span;

/// A gate application, including `U`, `CX` and `gphase`. A `gate`
/// definition keeps its body as these and lowers it at first use.
#[derive(Clone, Debug)]
pub struct GateCall<'a> {
    /// Gate name.
    pub name: &'a str,
    /// Span of the name.
    pub name_span: Span,
    /// Angle parameter expressions.
    pub params: Vec<Expr<'a>>,
    /// Qubit arguments.
    pub args: Vec<Arg<'a>>,
}

/// The condition of `if (creg == value)`.
#[derive(Clone, Copy, Debug)]
pub struct Condition<'a> {
    /// Condition register name.
    pub creg: &'a str,
    /// Span of the register name (for resolution diagnostics).
    pub creg_span: Span,
    /// Comparison value.
    pub value: u64,
}

/// A register reference, optionally indexed: `q`, `q[2]`.
#[derive(Clone, Copy, Debug)]
pub struct Arg<'a> {
    /// Register name (or gate-body formal).
    pub name: &'a str,
    /// `Some(i)` for `name[i]`, `None` for the whole register.
    pub index: Option<u64>,
    /// Source position.
    pub span: Span,
}

/// An angle expression (folded at lowering time).
#[derive(Clone, Debug)]
pub struct Expr<'a> {
    /// Node.
    pub kind: ExprKind<'a>,
    /// Source position.
    pub span: Span,
}

/// Expression nodes.
#[derive(Clone, Debug)]
pub enum ExprKind<'a> {
    /// Numeric literal.
    Num(f64),
    /// The constant `pi`.
    Pi,
    /// A gate parameter reference (only valid inside gate bodies).
    Ident(&'a str),
    /// Unary negation.
    Neg(Box<Expr<'a>>),
    /// Binary operation.
    Bin(BinOp, Box<Expr<'a>>, Box<Expr<'a>>),
    /// Built-in function call: `sin`, `cos`, `tan`, `exp`, `ln`, `sqrt`.
    Call(&'static str, Box<Expr<'a>>),
}

/// Binary operators, standard precedence (`^` binds tightest, right-assoc).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `^`
    Pow,
}
