//! Abstract syntax tree for the SQL dialect.

use vertexica_storage::{DataType, Value};

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        /// `ORDER BY` clause naming the ROS sort key columns.
        order_by: Vec<String>,
        if_not_exists: bool,
    },
    CreateTableAs {
        name: String,
        query: Box<Query>,
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        /// Optional explicit column list.
        columns: Vec<String>,
        source: InsertSource,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
    Query(Box<Query>),
    /// `EXPLAIN <query>`: the optimized plan, one row per line.
    Explain(Box<Query>),
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Query>),
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

/// A full query: optional CTEs, a set-expression body, ordering and limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<(String, Query)>,
    pub body: SetExpr,
    pub order_by: Vec<OrderByExpr>,
    pub limit: Option<u64>,
}

/// Query body: a SELECT or a UNION ALL chain.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    UnionAll(Box<SetExpr>, Box<SetExpr>),
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// An item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional alias
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Named {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<Query>,
        alias: String,
    },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// `ON` condition; `None` only for CROSS joins.
        on: Option<Expr>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Cross,
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    pub expr: Expr,
    pub asc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Scalar expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Possibly-qualified column reference: `(qualifier, name)`.
    Column(Option<String>, String),
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Case {
        when_then: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Cast {
        expr: Box<Expr>,
        dtype: DataType,
    },
    /// Function call: scalar functions and aggregate functions share this
    /// node; the planner distinguishes them by name.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `COUNT(*)`.
    CountStar,
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column(None, name.to_string())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// True if this expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::CountStar => true,
            Expr::Function { name, args, .. } => {
                crate::functions::is_aggregate_function(name)
                    || args.iter().any(|a| a.contains_aggregate())
            }
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Case { when_then, else_expr } => {
                when_then.iter().any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::Column(..) | Expr::Literal(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_equality() {
        let a = Expr::binary(Expr::col("x"), BinaryOp::Plus, Expr::lit(1i64));
        let b = Expr::binary(Expr::col("x"), BinaryOp::Plus, Expr::lit(1i64));
        let c = Expr::binary(Expr::col("y"), BinaryOp::Plus, Expr::lit(1i64));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let agg =
            Expr::Function { name: "sum".into(), args: vec![Expr::col("x")], distinct: false };
        let wrapped = Expr::binary(agg, BinaryOp::Divide, Expr::lit(2i64));
        assert!(wrapped.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert!(Expr::CountStar.contains_aggregate());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(!BinaryOp::Plus.is_comparison());
    }
}
