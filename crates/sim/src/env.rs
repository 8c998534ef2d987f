//! Per-process variable environments and FlowC statement execution.

use crate::error::{Result, SimError};
use qss_flowc::{BinOp, Expr, LValue, PortOp, Stmt, UnOp};
use std::collections::BTreeMap;

/// Callback used by the interpreter to move data through ports.
///
/// An implementation is bound to one process for the duration of a code
/// fragment, so the interpreter passes only the port name. The executors
/// resolve every port name to its place and environment role once per
/// run; the implementation decides whether the port is an intra-task
/// buffer, an inter-task channel or an environment port, and the executor
/// charges the corresponding communication cost.
pub trait ChannelIo {
    /// Reads `n` items from `port`, in FIFO order. The returned slice is
    /// only valid until the next call.
    ///
    /// # Errors
    /// Returns an error if the data is not available (the executors only
    /// execute a read when the firing rule guarantees availability, so this
    /// indicates an internal inconsistency).
    fn read_port(&mut self, port: &str, n: u32) -> Result<&[i64]>;

    /// Writes `values` to `port`.
    ///
    /// # Errors
    /// Returns an error if the channel cannot accept the data.
    fn write_port(&mut self, port: &str, values: &[i64]) -> Result<()>;
}

/// Counters accumulated while executing statements (used by the cost
/// models).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Plain statements executed (assignments, expression statements).
    pub statements: u64,
    /// Conditions evaluated (`if`, `while` tests).
    pub conditions: u64,
    /// Port operations executed.
    pub port_ops: u64,
    /// Items moved through ports.
    pub port_items: u64,
}

impl ExecCounters {
    /// Adds another set of counters to this one.
    pub fn add(&mut self, other: &ExecCounters) {
        self.statements += other.statements;
        self.conditions += other.conditions;
        self.port_ops += other.port_ops;
        self.port_items += other.port_items;
    }
}

/// Safety bound on loop iterations inside a single code fragment.
const MAX_LOOP_ITERATIONS: u64 = 10_000_000;

/// The variables of one FlowC process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessEnv {
    process: String,
    scalars: BTreeMap<String, i64>,
    arrays: BTreeMap<String, Vec<i64>>,
}

impl ProcessEnv {
    /// Creates an environment for `process` with the given declarations,
    /// all initialised to zero.
    pub fn new(process: impl Into<String>, declarations: &[(String, Option<u32>)]) -> Self {
        let mut env = ProcessEnv {
            process: process.into(),
            scalars: BTreeMap::new(),
            arrays: BTreeMap::new(),
        };
        for (name, size) in declarations {
            match size {
                Some(s) => {
                    env.arrays.insert(name.clone(), vec![0; *s as usize]);
                }
                None => {
                    env.scalars.insert(name.clone(), 0);
                }
            }
        }
        env
    }

    /// Name of the owning process.
    pub fn process(&self) -> &str {
        &self.process
    }

    /// Current value of a scalar variable (0 if never written).
    pub fn get(&self, name: &str) -> i64 {
        self.scalars.get(name).copied().unwrap_or(0)
    }

    /// Sets a scalar variable.
    pub fn set(&mut self, name: &str, value: i64) {
        match self.scalars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.scalars.insert(name.to_string(), value);
            }
        }
    }

    /// Current contents of an array variable.
    pub fn array(&self, name: &str) -> Option<&[i64]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    fn array_get(&self, name: &str, index: i64) -> Result<i64> {
        let arr = self.arrays.get(name).ok_or_else(|| {
            SimError::Evaluation(format!(
                "`{name}` is not an array in process {}",
                self.process
            ))
        })?;
        arr.get(index as usize).copied().ok_or_else(|| {
            SimError::Evaluation(format!(
                "index {index} out of bounds for `{name}[{}]`",
                arr.len()
            ))
        })
    }

    fn array_set(&mut self, name: &str, index: i64, value: i64) -> Result<()> {
        let process = &self.process;
        let arr = self.arrays.get_mut(name).ok_or_else(|| {
            SimError::Evaluation(format!("`{name}` is not an array in process {process}"))
        })?;
        let len = arr.len();
        let slot = arr.get_mut(index as usize).ok_or_else(|| {
            SimError::Evaluation(format!("index {index} out of bounds for `{name}[{len}]`"))
        })?;
        *slot = value;
        Ok(())
    }

    /// Evaluates an expression.
    ///
    /// # Errors
    /// Returns [`SimError::Evaluation`] on division by zero or bad array
    /// accesses.
    pub fn eval(&self, expr: &Expr) -> Result<i64> {
        match expr {
            Expr::Int(v) => Ok(*v),
            Expr::Var(name) => Ok(self.get(name)),
            Expr::Index(name, index) => {
                let i = self.eval(index)?;
                self.array_get(name, i)
            }
            Expr::Unary(UnOp::Neg, e) => Ok(self.eval(e)?.wrapping_neg()),
            Expr::Unary(UnOp::Not, e) => Ok((self.eval(e)? == 0) as i64),
            Expr::Binary(op, a, b) => {
                let a = self.eval(a)?;
                let b = self.eval(b)?;
                match op {
                    BinOp::Add => Ok(a.wrapping_add(b)),
                    BinOp::Sub => Ok(a.wrapping_sub(b)),
                    BinOp::Mul => Ok(a.wrapping_mul(b)),
                    BinOp::Div => {
                        if b == 0 {
                            Err(SimError::Evaluation("division by zero".into()))
                        } else {
                            Ok(a.wrapping_div(b))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            Err(SimError::Evaluation("modulo by zero".into()))
                        } else {
                            Ok(a.wrapping_rem(b))
                        }
                    }
                    BinOp::Lt => Ok((a < b) as i64),
                    BinOp::Le => Ok((a <= b) as i64),
                    BinOp::Gt => Ok((a > b) as i64),
                    BinOp::Ge => Ok((a >= b) as i64),
                    BinOp::Eq => Ok((a == b) as i64),
                    BinOp::Ne => Ok((a != b) as i64),
                    BinOp::And => Ok(((a != 0) && (b != 0)) as i64),
                    BinOp::Or => Ok(((a != 0) || (b != 0)) as i64),
                }
            }
        }
    }

    /// Evaluates a guard expression as a boolean.
    pub fn eval_guard(&self, expr: &Expr) -> Result<bool> {
        Ok(self.eval(expr)? != 0)
    }

    fn assign(&mut self, target: &LValue, value: i64) -> Result<()> {
        match target {
            LValue::Var(name) => {
                if self.arrays.contains_key(name) {
                    return Err(SimError::Evaluation(format!(
                        "cannot assign a scalar to array `{name}`"
                    )));
                }
                self.set(name, value);
                Ok(())
            }
            LValue::Index(name, index) => {
                let i = self.eval(index)?;
                self.array_set(name, i, value)
            }
        }
    }

    /// Stores `values` into the destination of a `READ_DATA`.
    fn store_read(&mut self, dest: &LValue, values: &[i64]) -> Result<()> {
        match dest {
            LValue::Var(name) if self.arrays.contains_key(name) => {
                let arr = self.arrays.get_mut(name).expect("checked above");
                if values.len() > arr.len() {
                    return Err(SimError::Evaluation(format!(
                        "read of {} items overflows array `{name}` in {}",
                        values.len(),
                        self.process
                    )));
                }
                arr[..values.len()].copy_from_slice(values);
                Ok(())
            }
            LValue::Var(name) => {
                // Scalar destination: keep the last value (items arrive in
                // order, the previous ones are overwritten).
                if let Some(last) = values.last() {
                    self.set(name, *last);
                }
                Ok(())
            }
            LValue::Index(name, index) => {
                let i = self.eval(index)?;
                if let Some(last) = values.last() {
                    self.array_set(name, i, *last)?;
                }
                Ok(())
            }
        }
    }

    /// Sends the `nitems` values of a `WRITE_DATA` through `io`: the
    /// leading items of an array source, or the value of a scalar source
    /// repeated.
    fn write(&self, port: &str, src: &Expr, nitems: u32, io: &mut dyn ChannelIo) -> Result<()> {
        if let Expr::Var(name) = src {
            if let Some(arr) = self.arrays.get(name) {
                let items = arr.get(..nitems as usize).ok_or_else(|| {
                    SimError::Evaluation(format!("write of {nitems} items exceeds array `{name}`"))
                })?;
                return io.write_port(port, items);
            }
        }
        let value = self.eval(src)?;
        if nitems == 1 {
            io.write_port(port, std::slice::from_ref(&value))
        } else {
            io.write_port(port, &vec![value; nitems as usize])
        }
    }

    /// Executes a straight-line statement list, performing port operations
    /// through `io` and accumulating execution counters.
    ///
    /// # Errors
    /// Propagates evaluation and I/O errors; loops are bounded by an
    /// internal iteration cap.
    pub fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        io: &mut dyn ChannelIo,
        counters: &mut ExecCounters,
    ) -> Result<()> {
        for stmt in stmts {
            self.exec_stmt(stmt, io, counters)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        io: &mut dyn ChannelIo,
        counters: &mut ExecCounters,
    ) -> Result<()> {
        match stmt {
            Stmt::Decl { names } => {
                for (name, size) in names {
                    match size {
                        Some(s) => {
                            self.arrays
                                .entry(name.clone())
                                .or_insert(vec![0; *s as usize]);
                        }
                        None => {
                            self.scalars.entry(name.clone()).or_insert(0);
                        }
                    }
                }
                Ok(())
            }
            Stmt::Nop => Ok(()),
            Stmt::Assign { target, value } => {
                counters.statements += 1;
                let v = self.eval(value)?;
                self.assign(target, v)
            }
            Stmt::Expr(e) => {
                counters.statements += 1;
                self.eval(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                counters.conditions += 1;
                if self.eval_guard(cond)? {
                    self.exec_stmts(then_branch, io, counters)
                } else {
                    self.exec_stmts(else_branch, io, counters)
                }
            }
            Stmt::While { cond, body } => {
                let mut iterations = 0u64;
                loop {
                    counters.conditions += 1;
                    if !self.eval_guard(cond)? {
                        return Ok(());
                    }
                    self.exec_stmts(body, io, counters)?;
                    iterations += 1;
                    if iterations > MAX_LOOP_ITERATIONS {
                        return Err(SimError::StepBudgetExhausted(MAX_LOOP_ITERATIONS));
                    }
                }
            }
            Stmt::Port(op) => self.exec_port_op(op, io, counters),
            Stmt::Select { .. } => Err(SimError::Evaluation(
                "SELECT must be resolved by the scheduler, not executed inline".into(),
            )),
        }
    }

    fn exec_port_op(
        &mut self,
        op: &PortOp,
        io: &mut dyn ChannelIo,
        counters: &mut ExecCounters,
    ) -> Result<()> {
        counters.port_ops += 1;
        counters.port_items += op.nitems() as u64;
        match op {
            PortOp::Read { port, dest, nitems } => {
                let values = io.read_port(port, *nitems)?;
                self.store_read(dest, values)
            }
            PortOp::Write { port, src, nitems } => self.write(port, src, *nitems, io),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_flowc::parse_process;

    /// A ChannelIo backed by simple per-port queues, for tests.
    #[derive(Default)]
    struct TestIo {
        queues: BTreeMap<String, Vec<i64>>,
        written: BTreeMap<String, Vec<i64>>,
        read: Vec<i64>,
    }

    impl ChannelIo for TestIo {
        fn read_port(&mut self, port: &str, n: u32) -> Result<&[i64]> {
            let q = self.queues.entry(port.to_string()).or_default();
            if q.len() < n as usize {
                return Err(SimError::Evaluation(format!("no data on {port}")));
            }
            self.read = q.drain(..n as usize).collect();
            Ok(&self.read)
        }

        fn write_port(&mut self, port: &str, values: &[i64]) -> Result<()> {
            self.written
                .entry(port.to_string())
                .or_default()
                .extend_from_slice(values);
            Ok(())
        }
    }

    #[test]
    fn arithmetic_and_guards() {
        let env = ProcessEnv::new("p", &[("x".into(), None)]);
        let p = parse_process("PROCESS p () { int x; x = (3 + 4) * 2 % 5; }").unwrap();
        let Stmt::Assign { value, .. } = &p.body[1] else {
            panic!()
        };
        assert_eq!(env.eval(value).unwrap(), 4);
        let guard = Expr::binary(BinOp::Lt, Expr::Var("x".into()), Expr::Int(1));
        assert!(env.eval_guard(&guard).unwrap());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let env = ProcessEnv::new("p", &[]);
        let e = Expr::binary(BinOp::Div, Expr::Int(1), Expr::Int(0));
        assert!(env.eval(&e).is_err());
        let e = Expr::binary(BinOp::Mod, Expr::Int(1), Expr::Int(0));
        assert!(env.eval(&e).is_err());
    }

    #[test]
    fn executes_divisors_body_fragment() {
        // Execute the divisors computation for n = 12 and check the values
        // written to `all` and `max`.
        let p = parse_process(qss_flowc::examples::DIVISORS).unwrap();
        let Stmt::While { body, .. } = &p.body[1] else {
            panic!()
        };
        let mut env = ProcessEnv::new("divisors", &[("n".into(), None), ("i".into(), None)]);
        let mut io = TestIo::default();
        io.queues.insert("in".into(), vec![12]);
        let mut counters = ExecCounters::default();
        env.exec_stmts(body, &mut io, &mut counters).unwrap();
        assert_eq!(io.written["max"], vec![6]);
        assert_eq!(io.written["all"], vec![6, 4, 3, 2, 1]);
        assert!(counters.statements > 0);
        assert!(counters.conditions > 0);
        assert_eq!(counters.port_ops, 1 + 1 + 5);
    }

    #[test]
    fn array_reads_and_writes() {
        let mut env = ProcessEnv::new("p", &[("buf".into(), Some(4)), ("x".into(), None)]);
        let mut io = TestIo::default();
        io.queues.insert("in".into(), vec![1, 2, 3, 4]);
        let read = Stmt::Port(PortOp::Read {
            port: "in".into(),
            dest: LValue::Var("buf".into()),
            nitems: 4,
        });
        let write = Stmt::Port(PortOp::Write {
            port: "out".into(),
            src: Expr::Var("buf".into()),
            nitems: 4,
        });
        let mut counters = ExecCounters::default();
        env.exec_stmts(&[read, write], &mut io, &mut counters)
            .unwrap();
        assert_eq!(io.written["out"], vec![1, 2, 3, 4]);
        assert_eq!(env.array("buf").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(counters.port_items, 8);
    }

    #[test]
    fn scalar_write_replicates_value() {
        let mut env = ProcessEnv::new("p", &[("v".into(), None)]);
        env.set("v", 9);
        let mut io = TestIo::default();
        env.write("out", &Expr::Var("v".into()), 3, &mut io)
            .unwrap();
        env.write("one", &Expr::Var("v".into()), 1, &mut io)
            .unwrap();
        assert_eq!(io.written["out"], vec![9, 9, 9]);
        assert_eq!(io.written["one"], vec![9]);
    }

    #[test]
    fn overflowing_division_and_negation_wrap() {
        // i64::MIN / -1 and i64::MIN % -1 overflow; like `+ - *` they wrap
        // instead of panicking.
        let env = ProcessEnv::new("p", &[]);
        let min = Expr::binary(
            BinOp::Sub,
            Expr::binary(BinOp::Sub, Expr::Int(0), Expr::Int(i64::MAX)),
            Expr::Int(1),
        );
        let minus_one = Expr::Unary(UnOp::Neg, Box::new(Expr::Int(1)));
        let div = Expr::binary(BinOp::Div, min.clone(), minus_one.clone());
        assert_eq!(env.eval(&div).unwrap(), i64::MIN);
        let rem = Expr::binary(BinOp::Mod, min.clone(), minus_one);
        assert_eq!(env.eval(&rem).unwrap(), 0);
        let neg = Expr::Unary(UnOp::Neg, Box::new(min));
        assert_eq!(env.eval(&neg).unwrap(), i64::MIN);
    }

    #[test]
    fn out_of_bounds_index_is_an_error() {
        let mut env = ProcessEnv::new("p", &[("buf".into(), Some(2))]);
        assert!(env.array_set("buf", 5, 1).is_err());
        assert!(env.array_get("buf", 5).is_err());
        assert!(env.array_get("nope", 0).is_err());
    }

    #[test]
    fn select_cannot_be_executed_inline() {
        let mut env = ProcessEnv::new("p", &[]);
        let mut io = TestIo::default();
        let mut counters = ExecCounters::default();
        let select = Stmt::Select {
            ports: vec![("a".into(), 1)],
            arms: vec![],
        };
        assert!(env.exec_stmts(&[select], &mut io, &mut counters).is_err());
    }
}
