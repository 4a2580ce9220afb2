//! Logical query plans.

use std::sync::Arc;

use vertexica_storage::{ColumnPredicate, Schema, Value};

use crate::ast::JoinKind;
use crate::expr::PhysExpr;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// A planned aggregate call.
#[derive(Debug, Clone)]
pub struct AggCall {
    pub func: AggFunc,
    /// Argument expression over the aggregate input (None for COUNT(*)).
    pub arg: Option<PhysExpr>,
    pub distinct: bool,
}

/// A relational operator tree.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Base-table scan with optional projection and pushed-down predicates.
    Scan {
        table: String,
        schema: Arc<Schema>,
        projection: Option<Vec<usize>>,
        predicates: Vec<ColumnPredicate>,
    },
    /// Literal rows.
    Values {
        schema: Arc<Schema>,
        rows: Vec<Vec<Value>>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: PhysExpr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<PhysExpr>,
        schema: Arc<Schema>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        /// Equi-join key pairs: (left column index, right column index).
        on: Vec<(usize, usize)>,
        /// Residual non-equi condition over the combined schema.
        filter: Option<PhysExpr>,
        schema: Arc<Schema>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<PhysExpr>,
        aggs: Vec<AggCall>,
        schema: Arc<Schema>,
    },
    Sort {
        input: Box<LogicalPlan>,
        /// (key expression over input schema, ascending?)
        keys: Vec<(PhysExpr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: u64,
    },
    UnionAll {
        inputs: Vec<LogicalPlan>,
        schema: Arc<Schema>,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Output schema of the plan node.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, projection, .. } => match projection {
                Some(p) => schema.project(p),
                None => schema.clone(),
            },
            LogicalPlan::Values { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join { schema, .. } => schema.clone(),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::UnionAll { schema, .. } => schema.clone(),
            LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Pretty-prints the plan tree, one node per line (the text of
    /// `EXPLAIN`). Scans show the names of the columns they read; joins,
    /// aggregates and projections show their output width.
    pub fn display_indent(&self) -> String {
        fn rec(plan: &LogicalPlan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            let schema = plan.schema();
            let width = schema.len();
            match plan {
                LogicalPlan::Scan { table, schema: table_schema, predicates, .. } => {
                    let names: Vec<&str> = schema.fields.iter().map(|f| f.name.as_str()).collect();
                    // Pushed-down predicates index the table, not the output.
                    let preds: Vec<String> = predicates
                        .iter()
                        .map(|p| {
                            format!("{} {:?} {}", table_schema.field(p.column).name, p.op, p.value)
                        })
                        .collect();
                    out.push_str(&format!(
                        "{pad}Scan {table} [{}] preds=[{}]\n",
                        names.join(", "),
                        preds.join(", ")
                    ));
                }
                LogicalPlan::Values { rows, .. } => {
                    out.push_str(&format!("{pad}Values rows={}\n", rows.len()));
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter {predicate:?}\n"));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    out.push_str(&format!("{pad}Project width={width} {exprs:?}\n"));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Join { left, right, kind, on, filter, .. } => {
                    out.push_str(&format!(
                        "{pad}Join {kind:?} on={on:?} filter={filter:?} width={width}\n"
                    ));
                    rec(left, indent + 1, out);
                    rec(right, indent + 1, out);
                }
                LogicalPlan::Aggregate { input, group, aggs, .. } => {
                    let args: Vec<_> = aggs.iter().map(|a| (a.func, &a.arg)).collect();
                    out.push_str(&format!(
                        "{pad}Aggregate width={width} groups={group:?} aggs={args:?}\n"
                    ));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Sort { input, keys } => {
                    out.push_str(&format!("{pad}Sort keys={}\n", keys.len()));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::Limit { input, n } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                    rec(input, indent + 1, out);
                }
                LogicalPlan::UnionAll { inputs, .. } => {
                    out.push_str(&format!("{pad}UnionAll inputs={}\n", inputs.len()));
                    for i in inputs {
                        rec(i, indent + 1, out);
                    }
                }
                LogicalPlan::Distinct { input } => {
                    out.push_str(&format!("{pad}Distinct\n"));
                    rec(input, indent + 1, out);
                }
            }
        }
        let mut s = String::new();
        rec(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::{DataType, Field};

    #[test]
    fn scan_schema_respects_projection() {
        let schema =
            Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]);
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: schema.clone(),
            projection: Some(vec![1]),
            predicates: vec![],
        };
        assert_eq!(scan.schema().fields[0].name, "b");
        let scan_all =
            LogicalPlan::Scan { table: "t".into(), schema, projection: None, predicates: vec![] };
        assert_eq!(scan_all.schema().len(), 2);
    }

    #[test]
    fn display_shows_tree() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                schema,
                projection: None,
                predicates: vec![],
            }),
            n: 10,
        };
        let s = plan.display_indent();
        assert!(s.contains("Limit 10"));
        assert!(s.contains("Scan t"));
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("nope"), None);
    }
}
