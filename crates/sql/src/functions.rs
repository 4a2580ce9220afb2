//! Scalar and aggregate function library.

use std::collections::HashMap;
use std::sync::Arc;

use vertexica_storage::{DataType, Value};

use crate::error::{SqlError, SqlResult};

/// Implementation of a scalar function: row-at-a-time over values.
pub struct ScalarFunction {
    pub name: &'static str,
    /// Computes the output type from argument types.
    pub return_type: fn(&[DataType]) -> SqlResult<DataType>,
    /// Evaluates one row. Receives already-evaluated argument values.
    pub eval: fn(&[Value]) -> SqlResult<Value>,
}

/// Aggregate functions known to the planner.
pub fn is_aggregate_function(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg")
}

fn num_ret(args: &[DataType]) -> SqlResult<DataType> {
    if args.contains(&DataType::Float) {
        Ok(DataType::Float)
    } else {
        Ok(DataType::Int)
    }
}

fn float_ret(_args: &[DataType]) -> SqlResult<DataType> {
    Ok(DataType::Float)
}

fn str_ret(_args: &[DataType]) -> SqlResult<DataType> {
    Ok(DataType::Str)
}

fn int_ret(_args: &[DataType]) -> SqlResult<DataType> {
    Ok(DataType::Int)
}

fn first_arg_ret(args: &[DataType]) -> SqlResult<DataType> {
    args.first().copied().ok_or_else(|| SqlError::Plan("function requires arguments".into()))
}

fn need_f64(v: &Value, fname: &str) -> SqlResult<f64> {
    v.as_float()
        .ok_or_else(|| SqlError::Execution(format!("{fname}: expected numeric argument, got {v}")))
}

/// Argument `i` of a call to `fname`; too few arguments is an error, not an
/// out-of-bounds panic.
fn arg<'a>(args: &'a [Value], i: usize, fname: &str) -> SqlResult<&'a Value> {
    args.get(i).ok_or_else(|| {
        SqlError::Execution(format!(
            "{fname}: expected at least {} arguments, got {}",
            i + 1,
            args.len()
        ))
    })
}

fn null_if_any_null(args: &[Value]) -> bool {
    args.iter().any(|a| a.is_null())
}

macro_rules! float_fn {
    ($name:literal, $f:expr) => {
        ScalarFunction {
            name: $name,
            return_type: float_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                let x = need_f64(arg(args, 0, $name)?, $name)?;
                #[allow(clippy::redundant_closure_call)]
                Ok(Value::Float(($f)(x)))
            },
        }
    };
}

/// Registry of scalar functions (builtins plus user-registered ones).
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    custom: HashMap<String, Arc<ScalarFunction>>,
}

impl FunctionRegistry {
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// Registers a user-defined scalar function (overrides builtins).
    pub fn register(&mut self, f: ScalarFunction) {
        self.custom.insert(f.name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Resolves a function by lowercase name.
    pub fn get(&self, name: &str) -> Option<Arc<ScalarFunction>> {
        if let Some(f) = self.custom.get(name) {
            return Some(f.clone());
        }
        builtin(name)
    }
}

/// Looks up a builtin scalar function.
pub fn builtin(name: &str) -> Option<Arc<ScalarFunction>> {
    let f = match name {
        "abs" => ScalarFunction {
            name: "abs",
            return_type: num_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                match arg(args, 0, "abs")? {
                    // Wrapping, like the rest of BIGINT arithmetic.
                    Value::Int(v) => Ok(Value::Int(v.wrapping_abs())),
                    Value::Float(v) => Ok(Value::Float(v.abs())),
                    other => Err(SqlError::Execution(format!("abs: non-numeric {other}"))),
                }
            },
        },
        "sqrt" => float_fn!("sqrt", f64::sqrt),
        "ln" => float_fn!("ln", f64::ln),
        "exp" => float_fn!("exp", f64::exp),
        "floor" => float_fn!("floor", f64::floor),
        "ceil" | "ceiling" => float_fn!("ceil", f64::ceil),
        "round" => float_fn!("round", f64::round),
        "power" | "pow" => ScalarFunction {
            name: "power",
            return_type: float_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                let x = need_f64(arg(args, 0, "power")?, "power")?;
                let y = need_f64(arg(args, 1, "power")?, "power")?;
                Ok(Value::Float(x.powf(y)))
            },
        },
        "least" => ScalarFunction {
            name: "least",
            return_type: first_arg_ret,
            eval: |args| {
                let vals: Vec<&Value> = args.iter().filter(|v| !v.is_null()).collect();
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                Ok(vals.into_iter().min_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null))
            },
        },
        "greatest" => ScalarFunction {
            name: "greatest",
            return_type: first_arg_ret,
            eval: |args| {
                let vals: Vec<&Value> = args.iter().filter(|v| !v.is_null()).collect();
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                Ok(vals.into_iter().max_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null))
            },
        },
        "coalesce" => ScalarFunction {
            name: "coalesce",
            return_type: first_arg_ret,
            eval: |args| {
                for a in args {
                    if !a.is_null() {
                        return Ok(a.clone());
                    }
                }
                Ok(Value::Null)
            },
        },
        "nullif" => ScalarFunction {
            name: "nullif",
            return_type: first_arg_ret,
            eval: |args| {
                if args.len() != 2 {
                    return Err(SqlError::Execution("nullif takes 2 arguments".into()));
                }
                if args[0].sql_eq(&args[1]) == Some(true) {
                    Ok(Value::Null)
                } else {
                    Ok(args[0].clone())
                }
            },
        },
        "length" => ScalarFunction {
            name: "length",
            return_type: int_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                match arg(args, 0, "length")? {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::Blob(b) => Ok(Value::Int(b.len() as i64)),
                    other => Err(SqlError::Execution(format!("length: bad argument {other}"))),
                }
            },
        },
        "lower" => ScalarFunction {
            name: "lower",
            return_type: str_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                match arg(args, 0, "lower")? {
                    Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                    other => Err(SqlError::Execution(format!("lower: bad argument {other}"))),
                }
            },
        },
        "upper" => ScalarFunction {
            name: "upper",
            return_type: str_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                match arg(args, 0, "upper")? {
                    Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                    other => Err(SqlError::Execution(format!("upper: bad argument {other}"))),
                }
            },
        },
        "substr" | "substring" => ScalarFunction {
            name: "substr",
            return_type: str_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                let s = arg(args, 0, "substr")?
                    .as_str()
                    .ok_or_else(|| SqlError::Execution("substr: bad string".into()))?;
                let start = arg(args, 1, "substr")?
                    .as_int()
                    .ok_or_else(|| SqlError::Execution("substr: bad start".into()))?;
                let chars: Vec<char> = s.chars().collect();
                // SQL substr is 1-based.
                let from = (start.max(1) - 1) as usize;
                let len = if args.len() > 2 {
                    args[2]
                        .as_int()
                        .ok_or_else(|| SqlError::Execution("substr: bad length".into()))?
                        .max(0) as usize
                } else {
                    chars.len().saturating_sub(from)
                };
                let out: String = chars.into_iter().skip(from).take(len).collect();
                Ok(Value::Str(out))
            },
        },
        "concat" => ScalarFunction {
            name: "concat",
            return_type: str_ret,
            eval: |args| {
                let mut out = String::new();
                for a in args {
                    if !a.is_null() {
                        out.push_str(&a.to_string());
                    }
                }
                Ok(Value::Str(out))
            },
        },
        "sign" => ScalarFunction {
            name: "sign",
            return_type: int_ret,
            eval: |args| {
                if null_if_any_null(args) {
                    return Ok(Value::Null);
                }
                let x = need_f64(arg(args, 0, "sign")?, "sign")?;
                Ok(Value::Int(if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                }))
            },
        },
        _ => return None,
    };
    Some(Arc::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Value {
        (builtin(name).unwrap().eval)(args).unwrap()
    }

    #[test]
    fn math_functions() {
        assert_eq!(call("abs", &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(call("sqrt", &[Value::Float(9.0)]), Value::Float(3.0));
        assert_eq!(call("power", &[Value::Int(2), Value::Int(10)]), Value::Float(1024.0));
        assert_eq!(call("floor", &[Value::Float(2.7)]), Value::Float(2.0));
        assert_eq!(call("sign", &[Value::Float(-2.5)]), Value::Int(-1));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(call("abs", &[Value::Null]), Value::Null);
        assert_eq!(call("concat", &[Value::Null, Value::Str("x".into())]), Value::Str("x".into()));
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("length", &[Value::Str("héllo".into())]), Value::Int(5));
        assert_eq!(call("upper", &[Value::Str("ab".into())]), Value::Str("AB".into()));
        assert_eq!(
            call("substr", &[Value::Str("vertexica".into()), Value::Int(1), Value::Int(6)]),
            Value::Str("vertex".into())
        );
        assert_eq!(
            call("substr", &[Value::Str("vertexica".into()), Value::Int(7)]),
            Value::Str("ica".into())
        );
    }

    #[test]
    fn conditional_functions() {
        assert_eq!(call("coalesce", &[Value::Null, Value::Int(2)]), Value::Int(2));
        assert_eq!(call("nullif", &[Value::Int(2), Value::Int(2)]), Value::Null);
        assert_eq!(call("nullif", &[Value::Int(2), Value::Int(3)]), Value::Int(2));
        assert_eq!(call("least", &[Value::Int(5), Value::Null, Value::Int(2)]), Value::Int(2));
        assert_eq!(call("greatest", &[Value::Int(5), Value::Int(2)]), Value::Int(5));
    }

    #[test]
    fn registry_custom_overrides() {
        let mut reg = FunctionRegistry::new();
        assert!(reg.get("abs").is_some());
        assert!(reg.get("nope").is_none());
        reg.register(ScalarFunction {
            name: "double_it",
            return_type: float_ret,
            eval: |args| Ok(Value::Float(args[0].as_float().unwrap_or(0.0) * 2.0)),
        });
        let f = reg.get("double_it").unwrap();
        assert_eq!((f.eval)(&[Value::Int(4)]).unwrap(), Value::Float(8.0));
    }

    #[test]
    fn aggregate_classifier() {
        assert!(is_aggregate_function("count"));
        assert!(is_aggregate_function("avg"));
        assert!(!is_aggregate_function("abs"));
    }
}
