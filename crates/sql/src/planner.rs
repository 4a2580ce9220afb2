//! Query planner: name resolution and lowering of AST to logical plans.

use std::collections::HashMap;
use std::sync::Arc;

use vertexica_storage::{Catalog, DataType, Field, Schema, Value};

use crate::ast::{self, BinaryOp, JoinKind, Query, Select, SelectItem, SetExpr, TableRef};
use crate::error::{SqlError, SqlResult};
use crate::expr::PhysExpr;
use crate::functions::{is_aggregate_function, FunctionRegistry};
use crate::logical::{AggCall, AggFunc, LogicalPlan};

/// One visible column during name resolution.
#[derive(Debug, Clone)]
pub struct ScopeCol {
    pub qualifier: Option<String>,
    pub name: String,
    pub dtype: DataType,
}

/// The set of columns visible to expressions, in input-schema order.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub cols: Vec<ScopeCol>,
}

impl Scope {
    fn from_schema(schema: &Schema, qualifier: Option<&str>) -> Scope {
        Scope {
            cols: schema
                .fields
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.map(|q| q.to_string()),
                    name: f.name.clone(),
                    dtype: f.dtype,
                })
                .collect(),
        }
    }

    fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> SqlResult<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name.eq_ignore_ascii_case(name)
                    && match qualifier {
                        None => true,
                        Some(q) => {
                            c.qualifier.as_deref().is_some_and(|cq| cq.eq_ignore_ascii_case(q))
                        }
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::Plan(format!(
                "column not found: {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::Plan(format!("ambiguous column reference: {name}"))),
        }
    }

    fn to_schema(&self) -> Arc<Schema> {
        Schema::new(self.cols.iter().map(|c| Field::new(c.name.clone(), c.dtype)).collect())
    }
}

/// A planned CTE body: its logical plan and output schema.
type CteEntry = (LogicalPlan, Arc<Schema>);

/// A planned query body: the plan, each output item's AST, and the scope
/// a plain select's projection reads (`None` for aggregates and unions).
type PlannedBody = (LogicalPlan, Vec<ast::Expr>, Option<Scope>);

/// The planner. Holds the catalog (for table schemas), the scalar-function
/// registry and the in-scope CTEs.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    functions: &'a FunctionRegistry,
    ctes: HashMap<String, CteEntry>,
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a Catalog, functions: &'a FunctionRegistry) -> Self {
        Planner { catalog, functions, ctes: HashMap::new() }
    }

    /// Plans a full query (CTEs, body, ORDER BY, LIMIT).
    pub fn plan_query(&mut self, query: &Query) -> SqlResult<LogicalPlan> {
        // Register CTEs (visible to later CTEs and the body).
        let saved: Vec<(String, Option<CteEntry>)> = query
            .ctes
            .iter()
            .map(|(name, _)| {
                let key = name.to_ascii_lowercase();
                (key.clone(), self.ctes.get(&key).cloned())
            })
            .collect();
        for (name, cte_query) in &query.ctes {
            let plan = self.plan_query(cte_query)?;
            let schema = plan.schema();
            self.ctes.insert(name.to_ascii_lowercase(), (plan, schema));
        }

        let result = self.plan_query_body(query);

        // Restore CTE environment (lexical scoping).
        for (key, old) in saved {
            match old {
                Some(v) => {
                    self.ctes.insert(key, v);
                }
                None => {
                    self.ctes.remove(&key);
                }
            }
        }
        result
    }

    fn plan_query_body(&mut self, query: &Query) -> SqlResult<LogicalPlan> {
        let (mut plan, item_asts, input_scope) = self.plan_set_expr(&query.body)?;

        // ORDER BY, resolved against the query output; keys referencing
        // non-projected base columns fall back to a sort below the
        // projection (`SELECT src FROM edge ORDER BY weight`, or
        // `... FROM a JOIN b ON a.k = b.k ORDER BY a.x`).
        if !query.order_by.is_empty() {
            let out_schema = plan.schema();
            let out_scope = Scope::from_schema(&out_schema, None);
            let over_output: SqlResult<Vec<(PhysExpr, bool)>> = query
                .order_by
                .iter()
                .map(|ob| Ok((self.resolve_output_expr(&ob.expr, &item_asts, &out_scope)?, ob.asc)))
                .collect();
            match over_output {
                Ok(keys) => {
                    plan = LogicalPlan::Sort { input: Box::new(plan), keys };
                }
                Err(err) => {
                    let LogicalPlan::Project { input, exprs, schema } = plan else {
                        return Err(err);
                    };
                    // A plain select projects its FROM scope, qualifiers
                    // included; above an aggregate only bare names resolve.
                    let in_scope =
                        input_scope.unwrap_or_else(|| Scope::from_schema(&input.schema(), None));
                    let mut keys = Vec::new();
                    for ob in &query.order_by {
                        // Positional keys must resolve against the output.
                        if matches!(ob.expr, ast::Expr::Literal(Value::Int(_))) {
                            return Err(err);
                        }
                        let key = match self.resolve_output_expr(&ob.expr, &item_asts, &out_scope) {
                            // Remap an output-level key below the projection
                            // by substituting projection expressions.
                            Ok(k) => substitute_columns(k, &exprs),
                            Err(_) => {
                                self.plan_expr(&ob.expr, &in_scope).map_err(|_| err_clone(&err))?
                            }
                        };
                        keys.push((key, ob.asc));
                    }
                    plan = LogicalPlan::Project {
                        input: Box::new(LogicalPlan::Sort { input, keys }),
                        exprs,
                        schema,
                    };
                }
            }
        }
        if let Some(n) = query.limit {
            plan = LogicalPlan::Limit { input: Box::new(plan), n };
        }
        Ok(plan)
    }

    /// Resolves an expression against the *output* of a select (used by
    /// ORDER BY): by position (`ORDER BY 2`), by structural match with a
    /// select item, by output column name, or as an expression over output
    /// columns.
    fn resolve_output_expr(
        &self,
        expr: &ast::Expr,
        item_asts: &[ast::Expr],
        out_scope: &Scope,
    ) -> SqlResult<PhysExpr> {
        if let ast::Expr::Literal(Value::Int(k)) = expr {
            let idx = *k - 1;
            if idx < 0 || idx as usize >= out_scope.cols.len() {
                return Err(SqlError::Plan(format!("ORDER BY position {k} out of range")));
            }
            return Ok(PhysExpr::Column(idx as usize));
        }
        for (i, item) in item_asts.iter().enumerate() {
            if item == expr {
                return Ok(PhysExpr::Column(i));
            }
        }
        self.plan_expr(expr, out_scope)
    }

    fn plan_set_expr(&mut self, body: &SetExpr) -> SqlResult<PlannedBody> {
        match body {
            SetExpr::Select(sel) => self.plan_select(sel),
            SetExpr::UnionAll(left, right) => {
                let (l, l_asts, _) = self.plan_set_expr(left)?;
                let (r, _, _) = self.plan_set_expr(right)?;
                let plan = self.union_all(l, r)?;
                Ok((plan, l_asts, None))
            }
        }
    }

    fn union_all(&self, l: LogicalPlan, r: LogicalPlan) -> SqlResult<LogicalPlan> {
        let ls = l.schema();
        let rs = r.schema();
        if ls.len() != rs.len() {
            return Err(SqlError::Plan(format!(
                "UNION ALL arity mismatch: {} vs {}",
                ls.len(),
                rs.len()
            )));
        }
        // Harmonize types: Int widens to Float; otherwise exact match needed.
        let mut target = Vec::with_capacity(ls.len());
        for (lf, rf) in ls.fields.iter().zip(&rs.fields) {
            let t = match (lf.dtype, rf.dtype) {
                (a, b) if a == b => a,
                (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                    DataType::Float
                }
                (a, b) => {
                    return Err(SqlError::Plan(format!(
                        "UNION ALL type mismatch on column {}: {a} vs {b}",
                        lf.name
                    )))
                }
            };
            target.push(t);
        }
        let schema = Schema::new(
            ls.fields.iter().zip(&target).map(|(f, t)| Field::new(f.name.clone(), *t)).collect(),
        );
        let cast_branch = |plan: LogicalPlan, from: &Schema| -> LogicalPlan {
            let needs_cast = from.fields.iter().zip(&target).any(|(f, t)| f.dtype != *t);
            if !needs_cast {
                return plan;
            }
            let exprs: Vec<PhysExpr> = from
                .fields
                .iter()
                .enumerate()
                .zip(&target)
                .map(|((i, f), t)| {
                    if f.dtype == *t {
                        PhysExpr::Column(i)
                    } else {
                        PhysExpr::Cast { expr: Box::new(PhysExpr::Column(i)), dtype: *t }
                    }
                })
                .collect();
            let schema = Schema::new(
                from.fields
                    .iter()
                    .zip(&target)
                    .map(|(f, t)| Field::new(f.name.clone(), *t))
                    .collect(),
            );
            LogicalPlan::Project { input: Box::new(plan), exprs, schema }
        };
        let l = cast_branch(l, &ls);
        let r = cast_branch(r, &rs);
        // Flatten nested unions.
        let mut inputs = Vec::new();
        for side in [l, r] {
            match side {
                LogicalPlan::UnionAll { inputs: mut i, .. } => inputs.append(&mut i),
                other => inputs.push(other),
            }
        }
        Ok(LogicalPlan::UnionAll { inputs, schema })
    }

    /// Plans one SELECT. A non-aggregate select also returns its FROM scope
    /// (table qualifiers included), the input of its projection.
    fn plan_select(&mut self, sel: &Select) -> SqlResult<PlannedBody> {
        // FROM
        let (mut plan, scope) = match &sel.from {
            Some(tref) => self.plan_table_ref(tref)?,
            None => {
                // SELECT without FROM: a single empty row.
                let schema = Schema::new(vec![Field::new("__dummy", DataType::Int)]);
                (
                    LogicalPlan::Values { schema: schema.clone(), rows: vec![vec![Value::Int(0)]] },
                    Scope::from_schema(&schema, None),
                )
            }
        };

        // WHERE
        if let Some(filter) = &sel.filter {
            if filter.contains_aggregate() {
                return Err(SqlError::Plan("aggregates are not allowed in WHERE".into()));
            }
            let pred = self.plan_expr(filter, &scope)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred };
        }

        let is_aggregate = !sel.group_by.is_empty()
            || sel.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || sel.having.as_ref().is_some_and(|h| h.contains_aggregate());

        let (plan, item_asts, input_scope) = if is_aggregate {
            let (plan, item_asts) = self.plan_aggregate_select(plan, scope, sel)?;
            (plan, item_asts, None)
        } else {
            if sel.having.is_some() {
                return Err(SqlError::Plan("HAVING requires GROUP BY or aggregates".into()));
            }
            let (plan, item_asts) = self.plan_plain_select(plan, &scope, sel)?;
            (plan, item_asts, Some(scope))
        };

        let plan =
            if sel.distinct { LogicalPlan::Distinct { input: Box::new(plan) } } else { plan };
        Ok((plan, item_asts, input_scope))
    }

    fn plan_plain_select(
        &mut self,
        input: LogicalPlan,
        scope: &Scope,
        sel: &Select,
    ) -> SqlResult<(LogicalPlan, Vec<ast::Expr>)> {
        let items = expand_wildcards(&sel.items, scope)?;
        let mut exprs = Vec::with_capacity(items.len());
        let mut fields = Vec::with_capacity(items.len());
        let mut item_asts = Vec::with_capacity(items.len());
        let input_schema = scope.to_schema();
        for (i, (expr_ast, alias)) in items.iter().enumerate() {
            let phys = self.plan_expr(expr_ast, scope)?;
            let dtype = phys.data_type(&input_schema)?;
            let name = output_name(expr_ast, alias.as_deref(), i);
            fields.push(Field::new(name, dtype));
            exprs.push(phys);
            item_asts.push(expr_ast.clone());
        }
        let schema = Schema::new(fields);
        Ok((LogicalPlan::Project { input: Box::new(input), exprs, schema }, item_asts))
    }

    fn plan_aggregate_select(
        &mut self,
        input: LogicalPlan,
        scope: Scope,
        sel: &Select,
    ) -> SqlResult<(LogicalPlan, Vec<ast::Expr>)> {
        // Resolve GROUP BY expressions (support positions and aliases).
        let mut group_asts: Vec<ast::Expr> = Vec::new();
        for g in &sel.group_by {
            group_asts.push(self.resolve_group_expr(g, sel)?);
        }
        let input_schema = scope.to_schema();
        let mut group_phys = Vec::with_capacity(group_asts.len());
        for g in &group_asts {
            group_phys.push(self.plan_expr(g, &scope)?);
        }

        // Collect aggregate calls appearing in select items and HAVING.
        let mut agg_asts: Vec<ast::Expr> = Vec::new();
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut agg_asts);
            }
        }
        if let Some(h) = &sel.having {
            collect_aggregates(h, &mut agg_asts);
        }
        if agg_asts.is_empty() && group_asts.is_empty() {
            return Err(SqlError::Plan("aggregate query with no aggregates".into()));
        }

        // Plan each aggregate call.
        let mut agg_calls = Vec::with_capacity(agg_asts.len());
        let mut agg_fields = Vec::with_capacity(agg_asts.len());
        for (i, a) in agg_asts.iter().enumerate() {
            let (call, name) = match a {
                ast::Expr::CountStar => (
                    AggCall { func: AggFunc::CountStar, arg: None, distinct: false },
                    "count".to_string(),
                ),
                ast::Expr::Function { name, args, distinct } => {
                    let func = AggFunc::parse(name)
                        .ok_or_else(|| SqlError::Plan(format!("unknown aggregate {name}")))?;
                    if args.len() != 1 {
                        return Err(SqlError::Plan(format!("{name} takes one argument")));
                    }
                    let arg = self.plan_expr(&args[0], &scope)?;
                    (AggCall { func, arg: Some(arg), distinct: *distinct }, name.clone())
                }
                other => {
                    return Err(SqlError::Plan(format!("unsupported aggregate {other:?}")));
                }
            };
            let dtype = agg_output_type(&call, &input_schema)?;
            agg_fields.push(Field::new(format!("{name}_{i}"), dtype));
            agg_calls.push(call);
        }

        // Aggregate output schema: group columns then aggregate columns.
        let mut fields = Vec::with_capacity(group_phys.len() + agg_calls.len());
        for (i, (g_ast, g_phys)) in group_asts.iter().zip(&group_phys).enumerate() {
            let name = match g_ast {
                ast::Expr::Column(_, n) => n.clone(),
                _ => format!("group_{i}"),
            };
            fields.push(Field::new(name, g_phys.data_type(&input_schema)?));
        }
        fields.extend(agg_fields);
        let agg_schema = Schema::new(fields);

        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group_phys,
            aggs: agg_calls,
            schema: agg_schema.clone(),
        };

        // HAVING over the aggregate output.
        if let Some(h) = &sel.having {
            let pred = self.rewrite_post_agg(h, &group_asts, &agg_asts, &agg_schema)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred };
        }

        // Projection over the aggregate output.
        let mut exprs = Vec::new();
        let mut out_fields = Vec::new();
        let mut item_asts = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::Plan("* is not allowed with GROUP BY".into()));
            };
            let phys = self.rewrite_post_agg(expr, &group_asts, &agg_asts, &agg_schema)?;
            let dtype = phys.data_type(&agg_schema)?;
            out_fields.push(Field::new(output_name(expr, alias.as_deref(), i), dtype));
            exprs.push(phys);
            item_asts.push(expr.clone());
        }
        let schema = Schema::new(out_fields);
        Ok((LogicalPlan::Project { input: Box::new(plan), exprs, schema }, item_asts))
    }

    /// GROUP BY items may be positions (`GROUP BY 1`) or select aliases.
    fn resolve_group_expr(&self, g: &ast::Expr, sel: &Select) -> SqlResult<ast::Expr> {
        if let ast::Expr::Literal(Value::Int(k)) = g {
            let idx = *k - 1;
            if idx < 0 || idx as usize >= sel.items.len() {
                return Err(SqlError::Plan(format!("GROUP BY position {k} out of range")));
            }
            let SelectItem::Expr { expr, .. } = &sel.items[idx as usize] else {
                return Err(SqlError::Plan("GROUP BY position refers to *".into()));
            };
            return Ok(expr.clone());
        }
        if let ast::Expr::Column(None, name) = g {
            for item in &sel.items {
                if let SelectItem::Expr { expr, alias: Some(a) } = item {
                    if a.eq_ignore_ascii_case(name) && !matches!(expr, ast::Expr::Column(..)) {
                        return Ok(expr.clone());
                    }
                }
            }
        }
        Ok(g.clone())
    }

    /// Rewrites a post-aggregation expression (select item or HAVING) into a
    /// `PhysExpr` over the aggregate output schema: group expressions and
    /// aggregate calls become column references.
    // `agg_schema` is threaded through recursive calls so every rewrite level
    // resolves columns against the same aggregate output schema.
    #[allow(clippy::only_used_in_recursion)]
    fn rewrite_post_agg(
        &self,
        expr: &ast::Expr,
        group_asts: &[ast::Expr],
        agg_asts: &[ast::Expr],
        agg_schema: &Arc<Schema>,
    ) -> SqlResult<PhysExpr> {
        // Exact match with a group expression?
        for (i, g) in group_asts.iter().enumerate() {
            if g == expr {
                return Ok(PhysExpr::Column(i));
            }
            // An unqualified column in the query may match a qualified group
            // expression and vice versa — but two *differently qualified*
            // references (e1.src vs e2.src) are distinct columns.
            if let (ast::Expr::Column(gq, a), ast::Expr::Column(eq, b)) = (g, expr) {
                if a.eq_ignore_ascii_case(b) && (gq.is_none() || eq.is_none()) {
                    return Ok(PhysExpr::Column(i));
                }
            }
        }
        // Aggregate call?
        for (j, a) in agg_asts.iter().enumerate() {
            if a == expr {
                return Ok(PhysExpr::Column(group_asts.len() + j));
            }
        }
        // Recurse into the structure.
        match expr {
            ast::Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
            ast::Expr::Column(_, name) => Err(SqlError::Plan(format!(
                "column {name} must appear in GROUP BY or inside an aggregate"
            ))),
            ast::Expr::Binary { left, op, right } => Ok(PhysExpr::Binary {
                left: Box::new(self.rewrite_post_agg(left, group_asts, agg_asts, agg_schema)?),
                op: *op,
                right: Box::new(self.rewrite_post_agg(right, group_asts, agg_asts, agg_schema)?),
            }),
            ast::Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?),
            }),
            ast::Expr::IsNull { expr, negated } => Ok(PhysExpr::IsNull {
                expr: Box::new(self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?),
                negated: *negated,
            }),
            ast::Expr::InList { expr, list, negated } => Ok(PhysExpr::InList {
                expr: Box::new(self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?),
                list: list
                    .iter()
                    .map(|e| self.rewrite_post_agg(e, group_asts, agg_asts, agg_schema))
                    .collect::<SqlResult<Vec<_>>>()?,
                negated: *negated,
            }),
            ast::Expr::Between { expr, low, high, negated } => {
                let e = self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?;
                let lo = self.rewrite_post_agg(low, group_asts, agg_asts, agg_schema)?;
                let hi = self.rewrite_post_agg(high, group_asts, agg_asts, agg_schema)?;
                Ok(between_to_phys(e, lo, hi, *negated))
            }
            ast::Expr::Like { expr, pattern, negated } => Ok(PhysExpr::Like {
                expr: Box::new(self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?),
                pattern: Box::new(
                    self.rewrite_post_agg(pattern, group_asts, agg_asts, agg_schema)?,
                ),
                negated: *negated,
            }),
            ast::Expr::Case { when_then, else_expr } => Ok(PhysExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(w, t)| {
                        Ok((
                            self.rewrite_post_agg(w, group_asts, agg_asts, agg_schema)?,
                            self.rewrite_post_agg(t, group_asts, agg_asts, agg_schema)?,
                        ))
                    })
                    .collect::<SqlResult<Vec<_>>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|e| {
                        self.rewrite_post_agg(e, group_asts, agg_asts, agg_schema).map(Box::new)
                    })
                    .transpose()?,
            }),
            ast::Expr::Cast { expr, dtype } => Ok(PhysExpr::Cast {
                expr: Box::new(self.rewrite_post_agg(expr, group_asts, agg_asts, agg_schema)?),
                dtype: *dtype,
            }),
            ast::Expr::Function { name, args, .. } => {
                if is_aggregate_function(name) {
                    return Err(SqlError::Plan(format!(
                        "aggregate {name} not collected — nested aggregates are unsupported"
                    )));
                }
                let func = self
                    .functions
                    .get(name)
                    .ok_or_else(|| SqlError::Plan(format!("unknown function {name}")))?;
                Ok(PhysExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.rewrite_post_agg(a, group_asts, agg_asts, agg_schema))
                        .collect::<SqlResult<Vec<_>>>()?,
                })
            }
            ast::Expr::CountStar => {
                Err(SqlError::Plan("COUNT(*) not collected as aggregate".into()))
            }
        }
    }

    fn plan_table_ref(&mut self, tref: &TableRef) -> SqlResult<(LogicalPlan, Scope)> {
        match tref {
            TableRef::Named { name, alias } => {
                let key = name.to_ascii_lowercase();
                if let Some((plan, schema)) = self.ctes.get(&key) {
                    let qualifier = alias.as_deref().unwrap_or(name);
                    let scope = Scope::from_schema(schema, Some(qualifier));
                    return Ok((plan.clone(), scope));
                }
                let table = self.catalog.get(name)?;
                let schema = table.read().schema().clone();
                let qualifier = alias.as_deref().unwrap_or(name);
                let scope = Scope::from_schema(&schema, Some(qualifier));
                Ok((
                    LogicalPlan::Scan { table: key, schema, projection: None, predicates: vec![] },
                    scope,
                ))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.plan_query(query)?;
                let schema = plan.schema();
                let scope = Scope::from_schema(&schema, Some(alias));
                Ok((plan, scope))
            }
            TableRef::Join { left, right, kind, on } => {
                let (lplan, lscope) = self.plan_table_ref(left)?;
                let (rplan, rscope) = self.plan_table_ref(right)?;
                let left_width = lscope.cols.len();
                let combined = lscope.clone().concat(rscope.clone());

                let mut equi: Vec<(usize, usize)> = Vec::new();
                let mut residual: Option<PhysExpr> = None;
                if let Some(cond) = on {
                    let mut conjuncts = Vec::new();
                    flatten_and(cond, &mut conjuncts);
                    for c in conjuncts {
                        if let ast::Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = c {
                            let la = self.try_resolve_column(a, &lscope);
                            let rb = self.try_resolve_column(b, &rscope);
                            if let (Some(li), Some(ri)) = (la, rb) {
                                equi.push((li, ri));
                                continue;
                            }
                            let lb = self.try_resolve_column(b, &lscope);
                            let ra = self.try_resolve_column(a, &rscope);
                            if let (Some(li), Some(ri)) = (lb, ra) {
                                equi.push((li, ri));
                                continue;
                            }
                        }
                        let phys = self.plan_expr(c, &combined)?;
                        residual = Some(match residual.take() {
                            None => phys,
                            Some(prev) => PhysExpr::Binary {
                                left: Box::new(prev),
                                op: BinaryOp::And,
                                right: Box::new(phys),
                            },
                        });
                    }
                }

                // Join output schema: left fields then right fields, with
                // nullability widened on the outer side.
                let mut fields = Vec::with_capacity(combined.cols.len());
                for (i, c) in combined.cols.iter().enumerate() {
                    let mut f = Field::new(c.name.clone(), c.dtype);
                    let on_right = i >= left_width;
                    if (*kind == JoinKind::Left && on_right)
                        || (*kind == JoinKind::Right && !on_right)
                    {
                        f.nullable = true;
                    }
                    fields.push(f);
                }
                let schema = Schema::new(fields);
                Ok((
                    LogicalPlan::Join {
                        left: Box::new(lplan),
                        right: Box::new(rplan),
                        kind: *kind,
                        on: equi,
                        filter: residual,
                        schema,
                    },
                    combined,
                ))
            }
        }
    }

    fn try_resolve_column(&self, e: &ast::Expr, scope: &Scope) -> Option<usize> {
        if let ast::Expr::Column(q, n) = e {
            scope.resolve(q.as_deref(), n).ok()
        } else {
            None
        }
    }

    /// Lowers an AST expression to a physical expression over `scope`.
    pub fn plan_expr(&self, expr: &ast::Expr, scope: &Scope) -> SqlResult<PhysExpr> {
        Ok(match expr {
            ast::Expr::Column(q, n) => PhysExpr::Column(scope.resolve(q.as_deref(), n)?),
            ast::Expr::Literal(v) => PhysExpr::Literal(v.clone()),
            ast::Expr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(self.plan_expr(left, scope)?),
                op: *op,
                right: Box::new(self.plan_expr(right, scope)?),
            },
            ast::Expr::Unary { op, expr } => {
                PhysExpr::Unary { op: *op, expr: Box::new(self.plan_expr(expr, scope)?) }
            }
            ast::Expr::IsNull { expr, negated } => {
                PhysExpr::IsNull { expr: Box::new(self.plan_expr(expr, scope)?), negated: *negated }
            }
            ast::Expr::InList { expr, list, negated } => PhysExpr::InList {
                expr: Box::new(self.plan_expr(expr, scope)?),
                list: list
                    .iter()
                    .map(|e| self.plan_expr(e, scope))
                    .collect::<SqlResult<Vec<_>>>()?,
                negated: *negated,
            },
            ast::Expr::Between { expr, low, high, negated } => {
                let e = self.plan_expr(expr, scope)?;
                let lo = self.plan_expr(low, scope)?;
                let hi = self.plan_expr(high, scope)?;
                between_to_phys(e, lo, hi, *negated)
            }
            ast::Expr::Like { expr, pattern, negated } => PhysExpr::Like {
                expr: Box::new(self.plan_expr(expr, scope)?),
                pattern: Box::new(self.plan_expr(pattern, scope)?),
                negated: *negated,
            },
            ast::Expr::Case { when_then, else_expr } => PhysExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(w, t)| Ok((self.plan_expr(w, scope)?, self.plan_expr(t, scope)?)))
                    .collect::<SqlResult<Vec<_>>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|e| self.plan_expr(e, scope).map(Box::new))
                    .transpose()?,
            },
            ast::Expr::Cast { expr, dtype } => {
                PhysExpr::Cast { expr: Box::new(self.plan_expr(expr, scope)?), dtype: *dtype }
            }
            ast::Expr::Function { name, args, .. } => {
                if is_aggregate_function(name) {
                    return Err(SqlError::Plan(format!(
                        "aggregate function {name} is not allowed here"
                    )));
                }
                let func = self
                    .functions
                    .get(name)
                    .ok_or_else(|| SqlError::Plan(format!("unknown function {name}")))?;
                PhysExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.plan_expr(a, scope))
                        .collect::<SqlResult<Vec<_>>>()?,
                }
            }
            ast::Expr::CountStar => {
                return Err(SqlError::Plan("COUNT(*) is not allowed here".into()))
            }
        })
    }

    /// Plans an expression against a base table's schema (used by UPDATE and
    /// DELETE, where only the target table is in scope).
    pub fn plan_expr_for_table(
        &self,
        expr: &ast::Expr,
        schema: &Schema,
        table_name: &str,
    ) -> SqlResult<PhysExpr> {
        let scope = Scope::from_schema(schema, Some(table_name));
        self.plan_expr(expr, &scope)
    }
}

/// Replaces `Column(i)` with `replacements[i]` (used to push ORDER BY keys
/// below a projection).
fn substitute_columns(expr: PhysExpr, replacements: &[PhysExpr]) -> PhysExpr {
    match expr {
        PhysExpr::Column(i) => replacements[i].clone(),
        PhysExpr::Literal(v) => PhysExpr::Literal(v),
        PhysExpr::Binary { left, op, right } => PhysExpr::Binary {
            left: Box::new(substitute_columns(*left, replacements)),
            op,
            right: Box::new(substitute_columns(*right, replacements)),
        },
        PhysExpr::Unary { op, expr } => {
            PhysExpr::Unary { op, expr: Box::new(substitute_columns(*expr, replacements)) }
        }
        PhysExpr::IsNull { expr, negated } => {
            PhysExpr::IsNull { expr: Box::new(substitute_columns(*expr, replacements)), negated }
        }
        PhysExpr::InList { expr, list, negated } => PhysExpr::InList {
            expr: Box::new(substitute_columns(*expr, replacements)),
            list: list.into_iter().map(|e| substitute_columns(e, replacements)).collect(),
            negated,
        },
        PhysExpr::Like { expr, pattern, negated } => PhysExpr::Like {
            expr: Box::new(substitute_columns(*expr, replacements)),
            pattern: Box::new(substitute_columns(*pattern, replacements)),
            negated,
        },
        PhysExpr::Case { when_then, else_expr } => PhysExpr::Case {
            when_then: when_then
                .into_iter()
                .map(|(w, t)| {
                    (substitute_columns(w, replacements), substitute_columns(t, replacements))
                })
                .collect(),
            else_expr: else_expr.map(|e| Box::new(substitute_columns(*e, replacements))),
        },
        PhysExpr::Cast { expr, dtype } => {
            PhysExpr::Cast { expr: Box::new(substitute_columns(*expr, replacements)), dtype }
        }
        PhysExpr::ScalarFn { func, args } => PhysExpr::ScalarFn {
            func,
            args: args.into_iter().map(|e| substitute_columns(e, replacements)).collect(),
        },
    }
}

fn err_clone(e: &SqlError) -> SqlError {
    SqlError::Plan(e.to_string())
}

/// `a BETWEEN x AND y` desugars to `a >= x AND a <= y`.
fn between_to_phys(e: PhysExpr, lo: PhysExpr, hi: PhysExpr, negated: bool) -> PhysExpr {
    let ge =
        PhysExpr::Binary { left: Box::new(e.clone()), op: BinaryOp::GtEq, right: Box::new(lo) };
    let le = PhysExpr::Binary { left: Box::new(e), op: BinaryOp::LtEq, right: Box::new(hi) };
    let both = PhysExpr::Binary { left: Box::new(ge), op: BinaryOp::And, right: Box::new(le) };
    if negated {
        PhysExpr::Unary { op: crate::ast::UnaryOp::Not, expr: Box::new(both) }
    } else {
        both
    }
}

fn flatten_and<'e>(expr: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    if let ast::Expr::Binary { left, op: BinaryOp::And, right } = expr {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(expr);
    }
}

/// Collects aggregate call sub-expressions (deduplicated structurally).
fn collect_aggregates(expr: &ast::Expr, out: &mut Vec<ast::Expr>) {
    match expr {
        ast::Expr::CountStar => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        ast::Expr::Function { name, args, .. } => {
            if is_aggregate_function(name) {
                if !out.contains(expr) {
                    out.push(expr.clone());
                }
            } else {
                for a in args {
                    collect_aggregates(a, out);
                }
            }
        }
        ast::Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        ast::Expr::Unary { expr, .. } => collect_aggregates(expr, out),
        ast::Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        ast::Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        ast::Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        ast::Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        ast::Expr::Case { when_then, else_expr } => {
            for (w, t) in when_then {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
        ast::Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        ast::Expr::Column(..) | ast::Expr::Literal(_) => {}
    }
}

fn agg_output_type(call: &AggCall, input: &Schema) -> SqlResult<DataType> {
    Ok(match call.func {
        AggFunc::Count | AggFunc::CountStar => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => match &call.arg {
            Some(a) => a.data_type(input)?,
            None => return Err(SqlError::Plan("aggregate requires an argument".into())),
        },
    })
}

fn output_name(expr: &ast::Expr, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        ast::Expr::Column(_, n) => n.clone(),
        ast::Expr::Function { name, .. } => name.clone(),
        ast::Expr::CountStar => "count".to_string(),
        _ => format!("col_{idx}"),
    }
}

/// Expands `*` and `alias.*` into `(expr, alias)` pairs.
fn expand_wildcards(
    items: &[SelectItem],
    scope: &Scope,
) -> SqlResult<Vec<(ast::Expr, Option<String>)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for c in &scope.cols {
                    out.push((ast::Expr::Column(c.qualifier.clone(), c.name.clone()), None));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for c in &scope.cols {
                    if c.qualifier.as_deref().is_some_and(|cq| cq.eq_ignore_ascii_case(q)) {
                        out.push((ast::Expr::Column(c.qualifier.clone(), c.name.clone()), None));
                        any = true;
                    }
                }
                if !any {
                    return Err(SqlError::Plan(format!("unknown table alias in {q}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => out.push((expr.clone(), alias.clone())),
        }
    }
    if out.is_empty() {
        return Err(SqlError::Plan("empty select list".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use vertexica_storage::TableOptions;

    fn setup() -> Catalog {
        let cat = Catalog::new();
        cat.create_table(
            "edge",
            Schema::new(vec![
                Field::not_null("src", DataType::Int),
                Field::not_null("dst", DataType::Int),
                Field::new("weight", DataType::Float),
            ]),
            TableOptions::default(),
        )
        .unwrap();
        cat.create_table(
            "vertex",
            Schema::new(vec![
                Field::not_null("id", DataType::Int),
                Field::new("value", DataType::Float),
            ]),
            TableOptions::default(),
        )
        .unwrap();
        cat
    }

    fn plan(cat: &Catalog, sql: &str) -> SqlResult<LogicalPlan> {
        let stmt = parse_statement(sql)?;
        let crate::ast::Statement::Query(q) = stmt else { panic!("not a query") };
        let funcs = FunctionRegistry::new();
        let mut p = Planner::new(cat, &funcs);
        p.plan_query(&q)
    }

    #[test]
    fn plans_simple_scan_project() {
        let cat = setup();
        let p = plan(&cat, "SELECT src, dst FROM edge").unwrap();
        let s = p.schema();
        assert_eq!(s.fields[0].name, "src");
        assert_eq!(s.fields[1].name, "dst");
    }

    #[test]
    fn wildcard_expansion() {
        let cat = setup();
        let p = plan(&cat, "SELECT * FROM edge").unwrap();
        assert_eq!(p.schema().len(), 3);
    }

    #[test]
    fn qualified_wildcard() {
        let cat = setup();
        let p = plan(&cat, "SELECT e.* FROM edge e JOIN vertex v ON e.src = v.id").unwrap();
        assert_eq!(p.schema().len(), 3);
    }

    #[test]
    fn unknown_column_rejected() {
        let cat = setup();
        assert!(matches!(plan(&cat, "SELECT nonexistent FROM edge"), Err(SqlError::Plan(_))));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let cat = setup();
        // Both edge and a self-join alias have `src`.
        let r = plan(&cat, "SELECT src FROM edge a JOIN edge b ON a.src = b.dst");
        assert!(matches!(r, Err(SqlError::Plan(m)) if m.contains("ambiguous")));
    }

    #[test]
    fn join_extracts_equi_keys() {
        let cat = setup();
        let p = plan(
            &cat,
            "SELECT a.src FROM edge a JOIN edge b ON a.dst = b.src AND a.weight < b.weight",
        )
        .unwrap();
        // Find the join node under the project.
        let LogicalPlan::Project { input, .. } = p else { panic!() };
        let LogicalPlan::Join { on, filter, .. } = *input else { panic!() };
        assert_eq!(on, vec![(1, 0)]);
        assert!(filter.is_some());
    }

    #[test]
    fn aggregate_with_having() {
        let cat = setup();
        let p =
            plan(&cat, "SELECT src, COUNT(*) AS cnt FROM edge GROUP BY src HAVING COUNT(*) > 2")
                .unwrap();
        let s = p.schema();
        assert_eq!(s.fields[0].name, "src");
        assert_eq!(s.fields[1].name, "cnt");
        assert_eq!(s.fields[1].dtype, DataType::Int);
    }

    #[test]
    fn aggregate_arithmetic_on_output() {
        let cat = setup();
        let p = plan(&cat, "SELECT src, SUM(weight) / COUNT(*) FROM edge GROUP BY src").unwrap();
        assert_eq!(p.schema().fields[1].dtype, DataType::Float);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let cat = setup();
        let r = plan(&cat, "SELECT dst, COUNT(*) FROM edge GROUP BY src");
        assert!(matches!(r, Err(SqlError::Plan(m)) if m.contains("GROUP BY")));
    }

    #[test]
    fn group_by_position() {
        let cat = setup();
        let p = plan(&cat, "SELECT src, COUNT(*) FROM edge GROUP BY 1").unwrap();
        assert_eq!(p.schema().fields[0].name, "src");
    }

    #[test]
    fn order_by_position_and_alias() {
        let cat = setup();
        assert!(plan(&cat, "SELECT src AS s FROM edge ORDER BY 1").is_ok());
        assert!(plan(&cat, "SELECT src AS s FROM edge ORDER BY s DESC").is_ok());
        assert!(plan(&cat, "SELECT src FROM edge ORDER BY 5").is_err());
    }

    #[test]
    fn union_all_harmonizes_types() {
        let cat = setup();
        let p = plan(&cat, "SELECT src FROM edge UNION ALL SELECT weight FROM edge").unwrap();
        assert_eq!(p.schema().fields[0].dtype, DataType::Float);
        let LogicalPlan::UnionAll { inputs, .. } = p else { panic!() };
        assert_eq!(inputs.len(), 2);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let cat = setup();
        assert!(plan(&cat, "SELECT src, dst FROM edge UNION ALL SELECT src FROM edge").is_err());
    }

    #[test]
    fn cte_resolution() {
        let cat = setup();
        let p = plan(
            &cat,
            "WITH deg AS (SELECT src, COUNT(*) AS d FROM edge GROUP BY src) \
             SELECT v.id, deg.d FROM vertex v JOIN deg ON v.id = deg.src",
        )
        .unwrap();
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn aggregates_in_where_rejected() {
        let cat = setup();
        assert!(plan(&cat, "SELECT src FROM edge WHERE COUNT(*) > 1").is_err());
    }

    #[test]
    fn count_distinct_plans() {
        let cat = setup();
        let p = plan(&cat, "SELECT COUNT(DISTINCT src) FROM edge").unwrap();
        assert_eq!(p.schema().len(), 1);
    }

    #[test]
    fn select_without_from() {
        let cat = setup();
        let p = plan(&cat, "SELECT 1 + 1 AS two").unwrap();
        assert_eq!(p.schema().fields[0].name, "two");
    }
}
