//! Compiled match-action policy programs and the PIFO scheduler primitive.
//!
//! The paper's SDN framing promises *programmable* control planes, but the
//! first cut of this codebase hardcoded every resourcing behavior (strict
//! two-class memory priority, IDE bandwidth quotas, NIC v-NIC enables) as
//! Rust match arms. This module turns those behaviors into **data**:
//!
//! * a [`Program`] is a small match-action table compiled from a textual
//!   rule list (`when <pred> do <action>, ...`). Matches see the DS-id, the
//!   request class, and (optionally) parameter/statistics predicates;
//!   actions come from a fixed micro-op set — set a scheduling rank, mark
//!   urgent, charge a token bucket, set a way mask, drop/defer, bump a
//!   statistic. Column references are validated against the owning plane's
//!   `DsTable` schemas at install time, so a misspelled `priority` is an
//!   install error, never a silently-zeroed tenant.
//! * a [`Pifo`] is a push-in-first-out queue ("Programmable Packet
//!   Scheduling at Line Rate"): entries are pushed with a rank computed by
//!   the program and dequeue lowest-rank-first, FIFO within equal rank.
//!   The DRAM controller's two hardcoded priority classes are one PIFO
//!   with the built-in program `rank 0 urgent / rank 1`.
//! * a [`PolicyEngine`] holds the bounded per-request state the compiled
//!   program needs ("Packet Transactions"): the WFQ virtual clock and
//!   per-DS finish tags behind [`Expr::Wfq`], and per-rule token buckets
//!   behind [`MicroOp::Charge`].
//!
//! Programs are pure data and deterministic: evaluation touches no wall
//! clock and no hashing-ordered iteration, so figures driven by policies
//! stay byte-identical across `PARD_THREADS` settings.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use pard_icn::DsId;
use pard_sim::Time;

use crate::cells::{StatKey, StatsCells};
use crate::error::CpError;
use crate::table::DsTable;
use crate::trigger::CmpOp;

/// Simulated-time units per second (`Time::UNITS_PER_NS` × 1e9), the
/// denominator of the token-bucket refill arithmetic.
const UNITS_PER_SEC: u64 = Time::UNITS_PER_NS * 1_000_000_000;

/// Fixed-point scale for WFQ virtual finish tags: one byte at weight 1
/// advances a flow's finish time by this many virtual ticks.
const WFQ_SCALE: u64 = 16;

/// The request classes a policy predicate can match on.
///
/// Each resource maps its own packet kinds onto these before consulting
/// the engine (the memory controller distinguishes reads, writes,
/// writebacks and DMA; the bridge sees DMA, disk commands and PIO; the
/// NIC sees frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    /// A demand memory read.
    Read,
    /// A demand memory write.
    Write,
    /// A cache writeback.
    Writeback,
    /// A DMA transfer.
    Dma,
    /// A disk command.
    Disk,
    /// A programmed-I/O access.
    Pio,
    /// A network frame.
    Frame,
}

impl ReqClass {
    fn parse(tok: &str) -> Option<ReqClass> {
        Some(match tok {
            "read" => ReqClass::Read,
            "write" => ReqClass::Write,
            "writeback" => ReqClass::Writeback,
            "dma" => ReqClass::Dma,
            "disk" => ReqClass::Disk,
            "pio" => ReqClass::Pio,
            "frame" => ReqClass::Frame,
            _ => return None,
        })
    }

    /// The class keyword as it appears in policy source.
    pub fn name(self) -> &'static str {
        match self {
            ReqClass::Read => "read",
            ReqClass::Write => "write",
            ReqClass::Writeback => "writeback",
            ReqClass::Dma => "dma",
            ReqClass::Disk => "disk",
            ReqClass::Pio => "pio",
            ReqClass::Frame => "frame",
        }
    }
}

/// One request presented to a [`PolicyEngine`] for a decision.
#[derive(Debug, Clone, Copy)]
pub struct PolicyReq {
    /// The request's DS-id tag.
    pub ds: DsId,
    /// The request class (resource-specific mapping).
    pub class: ReqClass,
    /// Payload size in bytes (drives `size` expressions and WFQ tags).
    pub size: u64,
}

/// A compiled rank/cost expression over request and table state.
///
/// Arithmetic saturates; division by zero yields zero (all deterministic,
/// no panics on user-authored programs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal.
    Const(u64),
    /// A parameter-table cell of the request's DS row, by resolved offset.
    Param(usize),
    /// A statistics-table cell of the request's DS row, by resolved offset.
    Stat(usize),
    /// The request's payload size in bytes.
    Size,
    /// Saturating addition.
    Add(Box<Expr>, Box<Expr>),
    /// Saturating subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Saturating multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division (`x / 0 == 0`).
    Div(Box<Expr>, Box<Expr>),
    /// Start-time fair queueing over DS-ids: the inner expression is the
    /// flow weight. Only valid in rank position (it mutates the engine's
    /// virtual clock).
    Wfq(Box<Expr>),
}

impl Expr {
    fn uses_stats(&self) -> bool {
        match self {
            Expr::Stat(_) => true,
            Expr::Const(_) | Expr::Param(_) | Expr::Size => false,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.uses_stats() || b.uses_stats()
            }
            Expr::Wfq(w) => w.uses_stats(),
        }
    }

    /// Whether the expression's value depends only on the DS-id's
    /// parameter row — not on the request (`size`), live statistics, or
    /// mutable engine state (`wfq`).
    fn per_ds_pure(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Param(_) => true,
            Expr::Stat(_) | Expr::Size | Expr::Wfq(_) => false,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.per_ds_pure() && b.per_ds_pure()
            }
        }
    }
}

/// What a failed [`MicroOp::Charge`] does to the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnFail {
    /// Deny admission.
    Drop,
    /// Admit, but push the request's rank to the very back of the PIFO
    /// (resources without a PIFO treat deferral as an extra hop delay).
    Defer,
}

/// One action from the fixed micro-op set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// Set the PIFO rank (lower dequeues first).
    Rank(Expr),
    /// Mark the request urgent: urgent entries bypass bus-admission gating
    /// in the memory controller (the old "high priority class" bit).
    Urgent,
    /// Set the request's service weight (quota-style resources read this
    /// as their per-DS share; `0` means "unreserved").
    Weight(Expr),
    /// Deny admission.
    Drop,
    /// Admit at back-of-queue rank (or with an extra hop delay).
    Defer,
    /// Charge `cost` tokens from this rule's per-DS token bucket, refilled
    /// at `rate` tokens/second up to `burst`; on insufficient tokens the
    /// remaining micro-ops are skipped and `on_fail` applies.
    Charge {
        /// Tokens to charge (usually `size`).
        cost: Expr,
        /// Refill rate in tokens per simulated second.
        rate: Expr,
        /// Bucket capacity in tokens.
        burst: Expr,
        /// Applied when the bucket cannot cover `cost`.
        on_fail: OnFail,
    },
    /// Increment a statistics cell of the request's DS row by one.
    Bump(usize),
    /// Set the way mask the request's fill should use (cache planes).
    WayMask(Expr),
}

/// One match clause of a rule predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clause {
    /// Compare the request's DS-id against a literal.
    Ds(CmpOp, u64),
    /// Require an exact request class.
    Class(ReqClass),
    /// Compare a parameter cell (by resolved offset) against a literal.
    Param(usize, CmpOp, u64),
    /// Compare a statistics cell (by resolved offset) against a literal.
    Stat(usize, CmpOp, u64),
}

/// One `when <pred> do <actions>` rule. First matching rule wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Conjunctive match clauses; empty means `when all`.
    pub clauses: Vec<Clause>,
    /// Micro-ops applied in order when the rule matches.
    pub ops: Vec<MicroOp>,
}

impl Rule {
    fn matches(&self, req: &PolicyReq, prow: &[u64], srow: &[u64], now: Time) -> bool {
        self.clauses.iter().all(|c| match *c {
            Clause::Ds(op, v) => op.eval(u64::from(req.ds.raw()), v),
            Clause::Class(cls) => req.class == cls,
            Clause::Param(off, op, v) => {
                op.eval(cell(prow, off, "param_offset_oob", req.ds, now), v)
            }
            Clause::Stat(off, op, v) => op.eval(cell(srow, off, "stat_offset_oob", req.ds, now), v),
        })
    }
}

/// Reads one program-resolved cell offset from a table row.
///
/// Programs are schema-validated at install time, so an out-of-range
/// offset reaching the eval hot path is a contract violation — the table
/// shrank under an installed program, or the caller passed the wrong row
/// — never a tolerable input. It is counted and reported through the
/// audit layer ([`pard_sim::audit::unexpected_event`]: a conservation
/// violation when an auditor is installed, a debug-build panic
/// otherwise); the defined release-mode behavior *after reporting* is to
/// evaluate the cell as 0, which keeps the decision total.
fn cell(row: &[u64], off: usize, kind: &'static str, ds: DsId, now: Time) -> u64 {
    match row.get(off) {
        Some(&v) => v,
        None => {
            pard_sim::audit::unexpected_event("policy", kind, now, ds.raw());
            0
        }
    }
}

/// A compiled, schema-validated match-action program.
///
/// Programs compile from text via [`ControlPlane::compile_policy`]
/// (or [`Program::parse`] directly) and install as data — through the
/// firmware's `/sys/policy/cpa<N>/program` device file, the `pardpolicy`
/// shell verb, or [`ControlPlane::install_policy`]. The plane assigns each
/// installed program a fresh epoch so engines know when to reset their
/// per-flow state.
///
/// [`ControlPlane::compile_policy`]: crate::ControlPlane::compile_policy
/// [`ControlPlane::install_policy`]: crate::ControlPlane::install_policy
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
    source: String,
    epoch: u64,
    uses_stats: bool,
    per_ds_pure: bool,
}

impl Program {
    /// Compiles `source` against the given parameter schema and statistics
    /// cells, resolving every `param.X` / `stat.X` reference to a column
    /// offset.
    ///
    /// # Grammar
    ///
    /// ```text
    /// program := rule (('\n' | ';') rule)*        # '#' starts a comment
    /// rule    := 'when' pred 'do' action (',' action)*
    /// pred    := 'all' | clause ('&&' clause)*
    /// clause  := 'ds' cmp NUM
    ///          | 'class' '==' (read|write|writeback|dma|disk|pio|frame)
    ///          | 'param' '.' NAME cmp NUM
    ///          | 'stat' '.' NAME cmp NUM
    /// action  := 'rank' expr | 'urgent' | 'weight' expr | 'drop' | 'defer'
    ///          | 'charge' expr 'rate' expr 'burst' expr 'else' ('drop'|'defer')
    ///          | 'bump' 'stat' '.' NAME
    ///          | 'waymask' expr
    /// expr    := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)*
    /// factor  := NUM | 'size' | 'param' '.' NAME | 'stat' '.' NAME
    ///          | 'wfq' '(' expr ')' | '(' expr ')'
    /// cmp     := '==' | '!=' | '<' | '<=' | '>' | '>='
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CpError::Policy`] with the source line and the offending
    /// token for any syntax error or unknown column reference.
    pub fn parse(source: &str, params: &DsTable, stats: &StatsCells) -> Result<Program, CpError> {
        let mut rules = Vec::new();
        for (idx, raw_line) in source.split('\n').enumerate() {
            let line_no = idx + 1;
            for stmt in raw_line.split(';') {
                let stmt = stmt.trim();
                if stmt.is_empty() || stmt.starts_with('#') {
                    continue;
                }
                rules.push(parse_rule(stmt, line_no, params, stats)?);
            }
        }
        if rules.is_empty() {
            return Err(policy_err(
                1,
                "",
                "a policy program needs at least one `when ... do ...` rule",
            ));
        }
        let uses_stats = rules.iter().any(|r| {
            r.clauses.iter().any(|c| matches!(c, Clause::Stat(..)))
                || r.ops.iter().any(|op| match op {
                    MicroOp::Rank(e) | MicroOp::Weight(e) | MicroOp::WayMask(e) => e.uses_stats(),
                    MicroOp::Charge {
                        cost, rate, burst, ..
                    } => cost.uses_stats() || rate.uses_stats() || burst.uses_stats(),
                    _ => false,
                })
        });
        let per_ds_pure = rules.iter().all(|r| {
            r.clauses
                .iter()
                .all(|c| matches!(c, Clause::Ds(..) | Clause::Param(..)))
                && r.ops.iter().all(|op| match op {
                    MicroOp::Rank(e) | MicroOp::Weight(e) | MicroOp::WayMask(e) => e.per_ds_pure(),
                    MicroOp::Urgent | MicroOp::Drop | MicroOp::Defer | MicroOp::Bump(_) => true,
                    // Token buckets are mutable per-request state even
                    // when their operands are constants.
                    MicroOp::Charge { .. } => false,
                })
        });
        Ok(Program {
            rules,
            source: source.to_string(),
            epoch: 0,
            uses_stats,
            per_ds_pure,
        })
    }

    /// The verbatim source text this program compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The install epoch the owning plane stamped (0 until installed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether any rule reads statistics cells — when false, callers can
    /// skip the per-request statistics snapshot entirely (the hot-path
    /// fast case for all the built-in programs).
    pub fn uses_stats(&self) -> bool {
        self.uses_stats
    }

    /// Whether every decision this program can make is a pure function of
    /// the DS-id and its parameter row — no `class`/`size`/`stat.*`
    /// references, no `wfq(...)`, no token buckets. When true, data paths
    /// may evaluate the program once per DS-id at generation-refresh time
    /// and reuse the cached [`Decision`] for every request (the hot-path
    /// fast case for the built-in memory programs).
    pub fn per_ds_pure(&self) -> bool {
        self.per_ds_pure
    }

    /// The compiled rules, first-match-wins order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub(crate) fn with_epoch(mut self, epoch: u64) -> Program {
        self.epoch = epoch;
        self
    }
}

fn policy_err(line: usize, token: &str, message: impl Into<String>) -> CpError {
    CpError::Policy {
        line,
        token: token.to_string(),
        message: message.into(),
    }
}

fn tokenize(stmt: &str, line: usize) -> Result<Vec<String>, CpError> {
    let mut toks = Vec::new();
    let mut chars = stmt.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    tok.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(tok);
        } else if c.is_ascii_digit() {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                // Hex literals keep their `x` and digits; range errors are
                // caught when the number is parsed, with the token intact.
                if c.is_ascii_alphanumeric() {
                    tok.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(tok);
        } else {
            chars.next();
            let second = chars.peek().copied();
            match c {
                '=' if second == Some('=') => {
                    chars.next();
                    toks.push("==".into());
                }
                '!' if second == Some('=') => {
                    chars.next();
                    toks.push("!=".into());
                }
                '<' if second == Some('=') => {
                    chars.next();
                    toks.push("<=".into());
                }
                '>' if second == Some('=') => {
                    chars.next();
                    toks.push(">=".into());
                }
                '&' if second == Some('&') => {
                    chars.next();
                    toks.push("&&".into());
                }
                '<' | '>' | '.' | ',' | '(' | ')' | '+' | '-' | '*' | '/' => {
                    toks.push(c.to_string())
                }
                _ => {
                    return Err(policy_err(
                        line,
                        &c.to_string(),
                        "unexpected character in policy rule",
                    ))
                }
            }
        }
    }
    Ok(toks)
}

/// A token cursor over one rule statement.
struct Cursor<'a> {
    toks: Vec<String>,
    pos: usize,
    line: usize,
    params: &'a DsTable,
    stats: &'a StatsCells,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Result<String, CpError> {
        let tok = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| policy_err(self.line, "", "unexpected end of rule"))?;
        self.pos += 1;
        Ok(tok)
    }

    fn expect(&mut self, lit: &str) -> Result<(), CpError> {
        let tok = self.next().map_err(|_| {
            policy_err(
                self.line,
                "",
                format!("expected {lit:?} before end of rule"),
            )
        })?;
        if tok == lit {
            Ok(())
        } else {
            Err(policy_err(self.line, &tok, format!("expected {lit:?}")))
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.peek() == Some(lit) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn num(&mut self) -> Result<u64, CpError> {
        let tok = self.next()?;
        parse_num(&tok, self.line)
    }

    fn cmp_op(&mut self) -> Result<CmpOp, CpError> {
        let tok = self.next()?;
        Ok(match tok.as_str() {
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => {
                return Err(policy_err(
                    self.line,
                    &tok,
                    "expected a comparison operator",
                ))
            }
        })
    }

    /// Parses `. NAME` after `param`/`stat` and resolves it against the
    /// owning table's schema.
    fn column(&mut self, table: Table) -> Result<usize, CpError> {
        self.expect(".")?;
        let name = self.next()?;
        let resolved = match table {
            Table::Param => self.params.column_offset(&name),
            Table::Stat => self.stats.column_offset(&name),
        };
        resolved.map_err(|_| {
            policy_err(
                self.line,
                &name,
                format!(
                    "unknown {} column (policies validate against the plane's schema at install)",
                    match table {
                        Table::Param => "parameter",
                        Table::Stat => "statistics",
                    }
                ),
            )
        })
    }
}

#[derive(Clone, Copy)]
enum Table {
    Param,
    Stat,
}

fn parse_num(tok: &str, line: usize) -> Result<u64, CpError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| policy_err(line, tok, "expected an unsigned number"))
}

fn parse_rule(
    stmt: &str,
    line: usize,
    params: &DsTable,
    stats: &StatsCells,
) -> Result<Rule, CpError> {
    let toks = tokenize(stmt, line)?;
    let mut cur = Cursor {
        toks,
        pos: 0,
        line,
        params,
        stats,
    };
    cur.expect("when")?;
    let clauses = parse_pred(&mut cur)?;
    cur.expect("do")?;
    let mut ops = vec![parse_action(&mut cur)?];
    while cur.eat(",") {
        ops.push(parse_action(&mut cur)?);
    }
    if let Some(extra) = cur.peek() {
        return Err(policy_err(
            line,
            extra,
            "trailing tokens after the action list (separate actions with ',')",
        ));
    }
    Ok(Rule { clauses, ops })
}

fn parse_pred(cur: &mut Cursor<'_>) -> Result<Vec<Clause>, CpError> {
    if cur.eat("all") {
        return Ok(Vec::new());
    }
    let mut clauses = vec![parse_clause(cur)?];
    while cur.eat("&&") {
        clauses.push(parse_clause(cur)?);
    }
    Ok(clauses)
}

fn parse_clause(cur: &mut Cursor<'_>) -> Result<Clause, CpError> {
    let tok = cur.next()?;
    match tok.as_str() {
        "ds" => {
            let op = cur.cmp_op()?;
            Ok(Clause::Ds(op, cur.num()?))
        }
        "class" => {
            cur.expect("==")?;
            let cls = cur.next()?;
            ReqClass::parse(&cls).map(Clause::Class).ok_or_else(|| {
                policy_err(
                    cur.line,
                    &cls,
                    "expected a request class: read, write, writeback, dma, disk, pio or frame",
                )
            })
        }
        "param" => {
            let off = cur.column(Table::Param)?;
            let op = cur.cmp_op()?;
            Ok(Clause::Param(off, op, cur.num()?))
        }
        "stat" => {
            let off = cur.column(Table::Stat)?;
            let op = cur.cmp_op()?;
            Ok(Clause::Stat(off, op, cur.num()?))
        }
        _ => Err(policy_err(
            cur.line,
            &tok,
            "expected a match clause (ds, class, param.X, stat.X) or `all`",
        )),
    }
}

fn parse_action(cur: &mut Cursor<'_>) -> Result<MicroOp, CpError> {
    let tok = cur.next()?;
    match tok.as_str() {
        "rank" => Ok(MicroOp::Rank(parse_expr(cur, true)?)),
        "urgent" => Ok(MicroOp::Urgent),
        "weight" => Ok(MicroOp::Weight(parse_expr(cur, false)?)),
        "drop" => Ok(MicroOp::Drop),
        "defer" => Ok(MicroOp::Defer),
        "charge" => {
            let cost = parse_expr(cur, false)?;
            cur.expect("rate")?;
            let rate = parse_expr(cur, false)?;
            cur.expect("burst")?;
            let burst = parse_expr(cur, false)?;
            cur.expect("else")?;
            let fail = cur.next()?;
            let on_fail = match fail.as_str() {
                "drop" => OnFail::Drop,
                "defer" => OnFail::Defer,
                _ => {
                    return Err(policy_err(
                        cur.line,
                        &fail,
                        "expected `drop` or `defer` after `else`",
                    ))
                }
            };
            Ok(MicroOp::Charge {
                cost,
                rate,
                burst,
                on_fail,
            })
        }
        "bump" => {
            cur.expect("stat")?;
            Ok(MicroOp::Bump(cur.column(Table::Stat)?))
        }
        "waymask" => Ok(MicroOp::WayMask(parse_expr(cur, false)?)),
        _ => Err(policy_err(
            cur.line,
            &tok,
            "expected a micro-op: rank, urgent, weight, drop, defer, charge, bump or waymask",
        )),
    }
}

fn parse_expr(cur: &mut Cursor<'_>, allow_wfq: bool) -> Result<Expr, CpError> {
    let mut lhs = parse_term(cur, allow_wfq)?;
    loop {
        if cur.eat("+") {
            lhs = Expr::Add(Box::new(lhs), Box::new(parse_term(cur, allow_wfq)?));
        } else if cur.eat("-") {
            lhs = Expr::Sub(Box::new(lhs), Box::new(parse_term(cur, allow_wfq)?));
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_term(cur: &mut Cursor<'_>, allow_wfq: bool) -> Result<Expr, CpError> {
    let mut lhs = parse_factor(cur, allow_wfq)?;
    loop {
        if cur.eat("*") {
            lhs = Expr::Mul(Box::new(lhs), Box::new(parse_factor(cur, allow_wfq)?));
        } else if cur.eat("/") {
            lhs = Expr::Div(Box::new(lhs), Box::new(parse_factor(cur, allow_wfq)?));
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_factor(cur: &mut Cursor<'_>, allow_wfq: bool) -> Result<Expr, CpError> {
    let tok = cur.next()?;
    match tok.as_str() {
        "(" => {
            let inner = parse_expr(cur, allow_wfq)?;
            cur.expect(")")?;
            Ok(inner)
        }
        "size" => Ok(Expr::Size),
        "param" => Ok(Expr::Param(cur.column(Table::Param)?)),
        "stat" => Ok(Expr::Stat(cur.column(Table::Stat)?)),
        "wfq" => {
            if !allow_wfq {
                return Err(policy_err(
                    cur.line,
                    &tok,
                    "wfq(...) is only valid in rank position",
                ));
            }
            cur.expect("(")?;
            // The weight sub-expression must not itself be a wfq: one
            // virtual-clock advance per decision.
            let weight = parse_expr(cur, false)?;
            cur.expect(")")?;
            Ok(Expr::Wfq(Box::new(weight)))
        }
        _ => parse_num(&tok, cur.line).map(Expr::Const).map_err(|_| {
            policy_err(
                cur.line,
                &tok,
                "expected a number, size, param.X, stat.X, wfq(...) or a parenthesised expression",
            )
        }),
    }
}

/// The outcome of evaluating a program against one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// PIFO rank (lower dequeues first).
    pub rank: u64,
    /// Urgent entries bypass bus-admission gating.
    pub urgent: bool,
    /// `false` means the request is denied (dropped).
    pub admit: bool,
    /// `true` means the request was pushed to back-of-queue rank (or,
    /// on unqueued resources, should take an extra hop delay).
    pub deferred: bool,
    /// Service weight for quota-style resources (`0` = unreserved).
    pub weight: u64,
    /// Way mask override for cache planes, when a `waymask` op ran.
    pub waymask: Option<u64>,
    /// Statistics column to increment, when a `bump` op ran.
    pub bump: Option<StatKey>,
}

impl Default for Decision {
    /// The decision for a request no rule matched: admitted, rank 0,
    /// not urgent, unreserved weight.
    fn default() -> Self {
        Decision {
            rank: 0,
            urgent: false,
            admit: true,
            deferred: false,
            weight: 0,
            waymask: None,
            bump: None,
        }
    }
}

/// Per-(rule, DS) token-bucket state, scaled by [`UNITS_PER_SEC`] so the
/// refill arithmetic is exact in integers (no fractional-token loss on
/// frequent small refills).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens_scaled: u64,
    last: Time,
}

/// The per-resource evaluation engine: a program plus the bounded mutable
/// state its micro-ops need (WFQ clock, token buckets).
///
/// Engines are owned by the resource's data path (never shared), so
/// evaluation is lock-free; the owning component refreshes the engine from
/// [`ControlPlane::active_policy`] when the plane's generation changes.
///
/// [`ControlPlane::active_policy`]: crate::ControlPlane::active_policy
#[derive(Debug)]
pub struct PolicyEngine {
    prog: Arc<Program>,
    vtime: u64,
    finish: Vec<u64>,
    buckets: HashMap<(usize, u16), Bucket>,
}

impl PolicyEngine {
    /// Creates an engine running `prog` for up to `max_ds` DS-ids.
    pub fn new(prog: Arc<Program>, max_ds: usize) -> Self {
        PolicyEngine {
            prog,
            vtime: 0,
            finish: vec![0; max_ds.max(1)],
            buckets: HashMap::new(),
        }
    }

    /// The program currently loaded.
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// Swaps in `prog` if its epoch differs from the loaded one, resetting
    /// all per-flow state (virtual clock, finish tags, token buckets).
    pub fn refresh(&mut self, prog: Arc<Program>) {
        if prog.epoch() == self.prog.epoch() {
            return;
        }
        self.vtime = 0;
        self.finish.iter_mut().for_each(|f| *f = 0);
        self.buckets.clear();
        self.prog = prog;
    }

    /// Evaluates the program against one request. `prow`/`srow` are the
    /// request DS-id's parameter and statistics rows in schema order
    /// (`srow` may be empty when [`Program::uses_stats`] is false).
    ///
    /// First matching rule wins; its micro-ops apply in order. A failed
    /// `charge` stops the op list and applies its `else` arm.
    pub fn decide(&mut self, req: &PolicyReq, prow: &[u64], srow: &[u64], now: Time) -> Decision {
        let prog = Arc::clone(&self.prog);
        for (ri, rule) in prog.rules().iter().enumerate() {
            if !rule.matches(req, prow, srow, now) {
                continue;
            }
            let mut d = Decision::default();
            for op in &rule.ops {
                match op {
                    MicroOp::Rank(e) => d.rank = self.eval(e, req, prow, srow, now),
                    MicroOp::Urgent => d.urgent = true,
                    MicroOp::Weight(e) => d.weight = self.eval(e, req, prow, srow, now),
                    MicroOp::Drop => d.admit = false,
                    MicroOp::Defer => {
                        d.deferred = true;
                        d.rank = u64::MAX;
                    }
                    MicroOp::Charge {
                        cost,
                        rate,
                        burst,
                        on_fail,
                    } => {
                        let cost = self.eval(cost, req, prow, srow, now);
                        let rate = self.eval(rate, req, prow, srow, now);
                        let burst = self.eval(burst, req, prow, srow, now);
                        if !self.charge(ri, req.ds, cost, rate, burst, now) {
                            match on_fail {
                                OnFail::Drop => d.admit = false,
                                OnFail::Defer => {
                                    d.deferred = true;
                                    d.rank = u64::MAX;
                                }
                            }
                            break;
                        }
                    }
                    MicroOp::Bump(off) => d.bump = Some(StatKey::at(*off)),
                    MicroOp::WayMask(e) => d.waymask = Some(self.eval(e, req, prow, srow, now)),
                }
            }
            return d;
        }
        Decision::default()
    }

    /// Advances the WFQ virtual clock past a served entry's rank.
    ///
    /// Schedulers call this when dequeuing a PIFO entry whose rank came
    /// from a `wfq(...)` program; it is a no-op for rank values that never
    /// came from the virtual clock (the built-in constant-rank programs).
    #[inline]
    pub fn note_serve(&mut self, rank: u64) {
        if rank != u64::MAX {
            self.vtime = self.vtime.max(rank);
        }
    }

    fn eval(&mut self, e: &Expr, req: &PolicyReq, prow: &[u64], srow: &[u64], now: Time) -> u64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Param(off) => cell(prow, *off, "param_offset_oob", req.ds, now),
            Expr::Stat(off) => cell(srow, *off, "stat_offset_oob", req.ds, now),
            Expr::Size => req.size,
            Expr::Add(a, b) => {
                let a = self.eval(a, req, prow, srow, now);
                a.saturating_add(self.eval(b, req, prow, srow, now))
            }
            Expr::Sub(a, b) => {
                let a = self.eval(a, req, prow, srow, now);
                a.saturating_sub(self.eval(b, req, prow, srow, now))
            }
            Expr::Mul(a, b) => {
                let a = self.eval(a, req, prow, srow, now);
                a.saturating_mul(self.eval(b, req, prow, srow, now))
            }
            Expr::Div(a, b) => {
                let a = self.eval(a, req, prow, srow, now);
                let b = self.eval(b, req, prow, srow, now);
                if b == 0 {
                    0
                } else {
                    a / b
                }
            }
            Expr::Wfq(w) => {
                // Start-time fair queueing: rank is the flow's virtual
                // start tag; the finish tag advances by size/weight.
                let weight = self.eval(w, req, prow, srow, now).max(1);
                let i = req.ds.index().min(self.finish.len() - 1);
                let start = self.vtime.max(self.finish[i]);
                self.finish[i] = start.saturating_add(req.size.saturating_mul(WFQ_SCALE) / weight);
                start
            }
        }
    }

    fn charge(
        &mut self,
        rule: usize,
        ds: DsId,
        cost: u64,
        rate: u64,
        burst: u64,
        now: Time,
    ) -> bool {
        let burst_scaled = burst.saturating_mul(UNITS_PER_SEC);
        let b = self.buckets.entry((rule, ds.raw())).or_insert(Bucket {
            tokens_scaled: burst_scaled,
            last: now,
        });
        let dt = now.units().saturating_sub(b.last.units());
        if dt > 0 {
            let add = (u128::from(rate) * u128::from(dt)).min(u128::from(u64::MAX)) as u64;
            b.tokens_scaled = b.tokens_scaled.saturating_add(add).min(burst_scaled);
            b.last = now;
        }
        let cost_scaled = cost.saturating_mul(UNITS_PER_SEC);
        if b.tokens_scaled >= cost_scaled {
            b.tokens_scaled -= cost_scaled;
            true
        } else {
            false
        }
    }
}

/// Bucket count at which [`Pifo::push`] drops empty rank buckets before
/// it creates a new one. Below it an emptied bucket stays in place, so a
/// program with a few fixed ranks (the built-in memory programs have one
/// or two) creates each bucket once and then never inserts, removes or
/// pools one per request. Programs whose ranks keep rising (WFQ tags)
/// cannot pile up empties: past this count a new rank first clears them
/// whenever the buckets outnumber the queued entries, so the vector holds
/// at most this many buckets or as many as there are entries queued.
const PIFO_KEPT_BUCKETS: usize = 8;

/// A push-in-first-out queue: entries dequeue lowest-rank-first, stable
/// FIFO within equal rank ("Programmable Packet Scheduling at Line Rate").
///
/// The scheduler inspects only the **front bucket** (the lowest rank with
/// queued entries) when picking work — with the built-in two-rank memory
/// program this is exactly the old "serve the high queue if non-empty,
/// else the low queue" behavior, which keeps the default figures
/// byte-identical. Like a hardware PIFO, the ordered structure holds
/// small descriptors: the memory controller queues 16-byte keys and keeps
/// its requests in a slab of its own.
#[derive(Debug)]
pub struct Pifo<T> {
    /// Rank buckets, sorted ascending; some may be empty (see
    /// [`PIFO_KEPT_BUCKETS`]). A sorted `Vec` beats a tree here: the
    /// scheduler only ever touches the front bucket and the distinct-rank
    /// count is small.
    buckets: Vec<(u64, VecDeque<T>)>,
    /// Index of the front bucket: every bucket before it is empty, and it
    /// is `buckets.len()` when the queue is empty.
    front: usize,
    /// Queues of dropped empty buckets, reused by the next new rank.
    pool: Vec<VecDeque<T>>,
    len: usize,
}

impl<T> Default for Pifo<T> {
    fn default() -> Self {
        Pifo::new()
    }
}

impl<T> Pifo<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Pifo {
            buckets: Vec::new(),
            front: 0,
            pool: Vec::new(),
            len: 0,
        }
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes `item` at `rank`, behind earlier same-rank entries.
    pub fn push(&mut self, rank: u64, item: T) {
        let i = match self.buckets.binary_search_by_key(&rank, |b| b.0) {
            Ok(i) => i,
            Err(i) => self.insert_bucket(i, rank),
        };
        self.buckets[i].1.push_back(item);
        self.front = self.front.min(i);
        self.len += 1;
    }

    /// Creates the bucket for `rank`, whose sorted position is `at`, and
    /// returns its index. Out of line: steady traffic on fixed ranks never
    /// gets here.
    #[inline(never)]
    fn insert_bucket(&mut self, mut at: usize, rank: u64) -> usize {
        // More buckets than entries means at least one is empty; with no
        // more than that the pass might find nothing to drop, so skip it.
        if self.buckets.len() >= PIFO_KEPT_BUCKETS && self.buckets.len() > self.len {
            let pool = &mut self.pool;
            self.buckets.retain_mut(|(_, q)| {
                let keep = !q.is_empty();
                if !keep {
                    pool.push(std::mem::take(q));
                }
                keep
            });
            at = self.buckets.partition_point(|b| b.0 < rank);
            // Every bucket left holds entries.
            self.front = 0;
        }
        // The insert shifts only buckets at or after `at`; `push` makes
        // the new bucket the front if it comes first.
        let q = self.pool.pop().unwrap_or_default();
        self.buckets.insert(at, (rank, q));
        at
    }

    /// The lowest rank currently queued.
    pub fn front_rank(&self) -> Option<u64> {
        self.buckets.get(self.front).map(|b| b.0)
    }

    /// Iterates the front (lowest-rank) bucket in FIFO order.
    pub fn front_iter(&self) -> impl Iterator<Item = &T> {
        let (head, tail) = self
            .buckets
            .get(self.front)
            .map_or((&[][..], &[][..]), |b| b.1.as_slices());
        head.iter().chain(tail)
    }

    /// Removes and returns the `idx`-th entry of the front bucket along
    /// with its rank (FR-FCFS picks within the scheduler's reorder window).
    pub fn remove_front(&mut self, idx: usize) -> Option<(u64, T)> {
        let (rank, q) = self.buckets.get_mut(self.front)?;
        let rank = *rank;
        let item = q.remove(idx)?;
        self.len -= 1;
        if q.is_empty() {
            // The bucket stays; the front moves to the next one queued.
            self.front += 1;
            while self.buckets.get(self.front).is_some_and(|b| b.1.is_empty()) {
                self.front += 1;
            }
        }
        Some((rank, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnDef;
    use pard_sim::rng::Rng;

    fn schemas() -> (DsTable, StatsCells) {
        let params = DsTable::new(
            "parameter",
            vec![
                ColumnDef::with_default("priority", 0),
                ColumnDef::with_default("bandwidth", 0),
                ColumnDef::with_default("wfq_weight", 1),
            ],
            8,
        );
        let stats = StatsCells::new(vec![ColumnDef::new("serv_cnt"), ColumnDef::new("drops")], 8);
        (params, stats)
    }

    fn req(ds: u16, class: ReqClass, size: u64) -> PolicyReq {
        PolicyReq {
            ds: DsId::new(ds),
            class,
            size,
        }
    }

    #[test]
    fn builtin_two_class_program_reproduces_priority_semantics() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when param.priority != 0 do rank 0, urgent\nwhen all do rank 1",
            &params,
            &stats,
        )
        .unwrap();
        assert!(!prog.uses_stats());
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let hi = eng.decide(&req(1, ReqClass::Read, 64), &[1, 0, 1], &[], Time::ZERO);
        assert_eq!((hi.rank, hi.urgent, hi.admit), (0, true, true));
        let lo = eng.decide(&req(2, ReqClass::Read, 64), &[0, 0, 1], &[], Time::ZERO);
        assert_eq!((lo.rank, lo.urgent, lo.admit), (1, false, true));
    }

    #[test]
    fn per_ds_purity_classifies_programs() {
        let (params, stats) = schemas();
        let pure = [
            "when param.priority != 0 do rank 0, urgent\nwhen all do rank 1",
            "when all do rank 0",
            "when ds == 2 do drop\nwhen all do weight param.priority * 4",
        ];
        for src in pure {
            assert!(
                Program::parse(src, &params, &stats).unwrap().per_ds_pure(),
                "{src:?} should be cacheable per DS"
            );
        }
        let impure = [
            "when class == dma do drop\nwhen all do rank 0",
            "when all do rank size",
            "when stat.serv_cnt > 10 do defer\nwhen all do rank 0",
            "when all do rank wfq(param.wfq_weight)",
            "when all do charge size rate 100 burst 10 else drop",
        ];
        for src in impure {
            assert!(
                !Program::parse(src, &params, &stats).unwrap().per_ds_pure(),
                "{src:?} must be interpreted per request"
            );
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let (params, stats) = schemas();
        let prog =
            Program::parse("when ds == 3 do drop\nwhen all do rank 7", &params, &stats).unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        assert!(
            !eng.decide(&req(3, ReqClass::Dma, 1), &[], &[], Time::ZERO)
                .admit
        );
        assert_eq!(
            eng.decide(&req(4, ReqClass::Dma, 1), &[], &[], Time::ZERO)
                .rank,
            7
        );
    }

    #[test]
    fn unmatched_request_gets_the_default_decision() {
        let (params, stats) = schemas();
        let prog = Program::parse("when ds == 9 do drop", &params, &stats).unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let d = eng.decide(&req(0, ReqClass::Read, 1), &[], &[], Time::ZERO);
        assert_eq!(d, Decision::default());
    }

    #[test]
    fn shrunk_table_row_under_installed_program_is_reported_not_silent() {
        use pard_sim::{audit, RunConfig, RunState};

        // A program whose predicate and rank both read resolved param
        // offsets (priority=0, wfq_weight=2), compiled against the full
        // 3-column schema.
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when param.wfq_weight > 0 do rank param.priority\nwhen all do rank param.bandwidth",
            &params,
            &stats,
        )
        .unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);

        // Full-width row: offsets resolve, nothing to report. (The read
        // runs under the run state below, so any report would count.)
        let auditor = Arc::new(audit::Auditor::new(audit::AuditConfig::report()).unwrap());
        let mut run = RunState::new(RunConfig {
            auditor: Some(auditor.clone()),
            ..RunConfig::default()
        });
        let lend = run.lend();
        let d = eng.decide(&req(1, ReqClass::Read, 64), &[7, 3, 1], &[], Time::ZERO);
        assert_eq!(d.rank, 7);
        drop(lend);
        assert_eq!(run.unexpected_events(), 0);

        // The table "shrinks" under the installed program: the row the
        // engine is handed no longer covers the compiled offsets. The
        // read must not be a silent zero — it reports through the audit
        // layer (which also debug-panics when no auditor is lent, hence a
        // run state of this test's own with a report-mode auditor), then
        // evaluates as 0 so the decision stays total.
        let lend = run.lend();
        let d = eng.decide(&req(1, ReqClass::Read, 64), &[7], &[], Time::ZERO);
        // wfq_weight read 0 → first rule fails → rank param.bandwidth,
        // also out of range → rank 0.
        assert_eq!(d.rank, 0);
        drop(lend);
        assert_eq!(
            run.unexpected_events(),
            2,
            "both out-of-range offset reads must be counted"
        );
        assert_eq!(
            auditor.violations_total(),
            2,
            "a lent auditor must record the contract violation"
        );
    }

    #[test]
    fn class_and_stat_predicates_match() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when class == writeback do rank 9\nwhen stat.drops > 3 do drop\nwhen all do rank 1",
            &params,
            &stats,
        )
        .unwrap();
        assert!(prog.uses_stats());
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let wb = eng.decide(&req(0, ReqClass::Writeback, 64), &[], &[0, 9], Time::ZERO);
        assert_eq!(wb.rank, 9);
        let dropped = eng.decide(&req(0, ReqClass::Read, 64), &[], &[0, 9], Time::ZERO);
        assert!(!dropped.admit);
        let ok = eng.decide(&req(0, ReqClass::Read, 64), &[], &[0, 2], Time::ZERO);
        assert!(ok.admit);
    }

    #[test]
    fn expression_arithmetic_is_saturating_and_total() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when all do rank (size * 2 + param.priority) / param.bandwidth",
            &params,
            &stats,
        )
        .unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        // bandwidth 0: division by zero evaluates to 0, never panics.
        assert_eq!(
            eng.decide(&req(0, ReqClass::Read, 10), &[4, 0, 1], &[], Time::ZERO)
                .rank,
            0
        );
        assert_eq!(
            eng.decide(&req(0, ReqClass::Read, 10), &[4, 6, 1], &[], Time::ZERO)
                .rank,
            4
        );
    }

    #[test]
    fn wfq_ranks_interleave_by_weight() {
        let (params, stats) = schemas();
        let prog =
            Program::parse("when all do rank wfq(param.wfq_weight)", &params, &stats).unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        // ds0 weight 1, ds1 weight 4: four ds1 sends fit before ds0's second.
        let p0 = [0, 0, 1];
        let p1 = [0, 0, 4];
        let a1 = eng
            .decide(&req(0, ReqClass::Read, 64), &p0, &[], Time::ZERO)
            .rank;
        let b1 = eng
            .decide(&req(1, ReqClass::Read, 64), &p1, &[], Time::ZERO)
            .rank;
        let a2 = eng
            .decide(&req(0, ReqClass::Read, 64), &p0, &[], Time::ZERO)
            .rank;
        let b2 = eng
            .decide(&req(1, ReqClass::Read, 64), &p1, &[], Time::ZERO)
            .rank;
        assert_eq!((a1, b1), (0, 0));
        assert_eq!(a2, 64 * WFQ_SCALE);
        assert_eq!(b2, 64 * WFQ_SCALE / 4);
        assert!(b2 < a2, "the heavier flow's second tag lands earlier");
    }

    #[test]
    fn token_bucket_charges_and_refills_deterministically() {
        let (params, stats) = schemas();
        // 1000 tokens/sec, burst 100, cost 60 per request.
        let prog = Program::parse(
            "when all do charge 60 rate 1000 burst 100 else drop",
            &params,
            &stats,
        )
        .unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let r = req(0, ReqClass::Dma, 60);
        assert!(
            eng.decide(&r, &[], &[], Time::ZERO).admit,
            "bucket starts full"
        );
        assert!(
            !eng.decide(&r, &[], &[], Time::ZERO).admit,
            "40 tokens left"
        );
        // 60 ms at 1000 tokens/sec refills the 20-token shortfall.
        assert!(eng.decide(&r, &[], &[], Time::from_ms(60)).admit);
        assert!(!eng.decide(&r, &[], &[], Time::from_ms(60)).admit);
    }

    #[test]
    fn charge_failure_applies_the_else_arm_and_skips_later_ops() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when all do charge 10 rate 0 burst 10 else defer, urgent",
            &params,
            &stats,
        )
        .unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let r = req(0, ReqClass::Dma, 10);
        let first = eng.decide(&r, &[], &[], Time::ZERO);
        assert!(first.admit && !first.deferred && first.urgent);
        let second = eng.decide(&r, &[], &[], Time::ZERO);
        assert!(
            second.admit && second.deferred,
            "else defer admits at back rank"
        );
        assert_eq!(second.rank, u64::MAX);
        assert!(!second.urgent, "ops after the failed charge are skipped");
    }

    #[test]
    fn bump_and_waymask_surface_in_the_decision() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "when all do bump stat.drops, waymask 0xFF00",
            &params,
            &stats,
        )
        .unwrap();
        let mut eng = PolicyEngine::new(Arc::new(prog), 8);
        let d = eng.decide(&req(0, ReqClass::Read, 1), &[], &[], Time::ZERO);
        assert_eq!(d.bump, Some(StatKey::at(1)));
        assert_eq!(d.waymask, Some(0xFF00));
    }

    #[test]
    fn unknown_columns_are_install_errors_with_the_offending_token() {
        let (params, stats) = schemas();
        let err =
            Program::parse("when param.prioritty != 0 do rank 0", &params, &stats).unwrap_err();
        match err {
            CpError::Policy { line, token, .. } => {
                assert_eq!(line, 1);
                assert_eq!(token, "prioritty");
            }
            other => panic!("expected a policy error, got {other:?}"),
        }
        let err = Program::parse(
            "when all do rank 0\nwhen all do bump stat.dorps",
            &params,
            &stats,
        )
        .unwrap_err();
        match err {
            CpError::Policy { line, token, .. } => {
                assert_eq!(line, 2);
                assert_eq!(token, "dorps");
            }
            other => panic!("expected a policy error, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_name_line_and_token() {
        let (params, stats) = schemas();
        for (src, want_tok) in [
            ("when all rank 0", "rank"),
            ("when all do frobnicate 3", "frobnicate"),
            ("when all do rank 0xZZ", "0xZZ"),
            ("when class == warp do rank 0", "warp"),
            ("when all do rank wfq(1) extra", "extra"),
            ("when all do weight wfq(1)", "wfq"),
            ("when all do rank 0 @", "@"),
        ] {
            let err = Program::parse(src, &params, &stats).unwrap_err();
            match err {
                CpError::Policy { token, .. } => {
                    assert_eq!(token, want_tok, "source {src:?}")
                }
                other => panic!("expected a policy error for {src:?}, got {other:?}"),
            }
        }
        assert!(Program::parse("", &params, &stats).is_err());
        assert!(Program::parse("# just a comment\n", &params, &stats).is_err());
    }

    #[test]
    fn multibyte_input_is_rejected_not_panicked_on() {
        let (params, stats) = schemas();
        let err = Program::parse("when all do rank 0 ✗", &params, &stats).unwrap_err();
        match err {
            CpError::Policy { token, .. } => assert_eq!(token, "✗"),
            other => panic!("expected a policy error, got {other:?}"),
        }
    }

    #[test]
    fn pifo_is_rank_ordered_and_fifo_within_rank() {
        let mut q: Pifo<&str> = Pifo::new();
        q.push(2, "late");
        q.push(1, "a");
        q.push(1, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.front_rank(), Some(1));
        let front: Vec<_> = q.front_iter().copied().collect();
        assert_eq!(front, ["a", "b"]);
        assert_eq!(q.remove_front(0), Some((1, "a")));
        assert_eq!(q.remove_front(0), Some((1, "b")));
        assert_eq!(q.front_rank(), Some(2));
        assert_eq!(q.remove_front(0), Some((2, "late")));
        assert!(q.is_empty());
        assert_eq!(q.front_rank(), None);
        assert_eq!(q.front_iter().count(), 0);
        assert_eq!(q.remove_front(0), None);
        // A lower rank pushed behind an emptied one becomes the front.
        q.push(0, "urgent");
        assert_eq!(q.front_rank(), Some(0));
        assert_eq!(q.buckets.len(), 3);
    }

    #[test]
    fn pifo_front_window_skips_nothing_within_the_bucket() {
        let mut q: Pifo<u32> = Pifo::new();
        for v in 0..5 {
            q.push(0, v);
        }
        // Remove the middle entry (FR-FCFS row hit), order otherwise kept.
        assert_eq!(q.remove_front(2), Some((0, 2)));
        let left: Vec<_> = q.front_iter().copied().collect();
        assert_eq!(left, [0, 1, 3, 4]);
    }

    /// The built-in two-class program's traffic: both buckets are created
    /// once; after that, churn between empty and busy classes never
    /// inserts, removes or pools a bucket, nor grows a bucket's queue.
    #[test]
    fn pifo_two_rank_churn_keeps_its_buckets_after_warm_up() {
        let mut q: Pifo<u64> = Pifo::new();
        let mut rng = pard_sim::rng::stream_rng(1, "policy.pifo_two_rank_churn");
        let mut churn = |q: &mut Pifo<u64>, n: u64| {
            for v in 0..n {
                if q.len() < 12 && (q.is_empty() || rng.gen_bool(0.5)) {
                    q.push(rng.gen_range(0u64..2), v);
                } else {
                    let idx = rng.gen_range(0..q.front_iter().count());
                    q.remove_front(idx).unwrap();
                }
            }
        };
        // Warm-up: each class once as deep as the churn goes.
        for rank in 0..2 {
            for v in 0..12 {
                q.push(rank, v);
            }
            while q.remove_front(0).is_some() {}
        }
        let shape = |q: &Pifo<u64>| -> Vec<(u64, usize)> {
            q.buckets.iter().map(|b| (b.0, b.1.capacity())).collect()
        };
        let warm = shape(&q);
        assert_eq!(warm.len(), 2);
        churn(&mut q, 100_000);
        assert_eq!(shape(&q), warm, "no bucket created, dropped or grown");
        assert!(q.pool.is_empty(), "nothing went through the pool");
    }

    /// WFQ-style ranks: every push a new, larger rank. The bucket vector
    /// stays within [`PIFO_KEPT_BUCKETS`] or the most entries ever queued,
    /// however many ranks pass through.
    #[test]
    fn pifo_rising_ranks_keep_the_bucket_vector_bounded() {
        let mut q: Pifo<u64> = Pifo::new();
        let mut rng = pard_sim::rng::stream_rng(1, "policy.pifo_rising_ranks");
        let mut rank = 0u64;
        let mut peak = 0usize;
        for _ in 0..100_000 {
            let depth = q.len();
            if depth < 20 && (depth == 0 || rng.gen_bool(0.5)) {
                rank += rng.gen_range(1u64..100);
                q.push(rank, rank);
            } else {
                q.remove_front(0).unwrap();
            }
            peak = peak.max(q.len());
            assert!(
                q.buckets.len() <= PIFO_KEPT_BUCKETS.max(peak),
                "{} buckets for at most {peak} queued",
                q.buckets.len()
            );
        }
    }

    /// Random pushes over a few fixed ranks and rising ones, and removals
    /// anywhere in the front bucket: the queue behaves like a list sorted
    /// by (rank, push order), whichever buckets it keeps or drops.
    #[test]
    fn pifo_matches_a_sorted_reference() {
        pard_sim::check::cases("policy.pifo_matches_a_sorted_reference", 64, |rng| {
            let mut q: Pifo<u64> = Pifo::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (rank, seq)
            let mut high = 10u64;
            for seq in 0..rng.gen_range(10u64..600) {
                if reference.is_empty() || rng.gen_bool(0.55) {
                    let rank = if rng.gen_bool(0.5) {
                        rng.gen_range(0u64..4)
                    } else {
                        high += rng.gen_range(0u64..3);
                        high
                    };
                    q.push(rank, seq);
                    let at = reference.partition_point(|&e| e <= (rank, seq));
                    reference.insert(at, (rank, seq));
                } else {
                    let front = reference[0].0;
                    let width = reference.iter().take_while(|e| e.0 == front).count();
                    let idx = rng.gen_range(0..width);
                    let (rank, seq) = reference.remove(idx);
                    assert_eq!(q.remove_front(idx), Some((rank, seq)));
                }
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.front_rank(), reference.first().map(|e| e.0));
                let front: Vec<u64> = q.front_iter().copied().collect();
                let want: Vec<u64> = reference
                    .iter()
                    .take_while(|e| Some(e.0) == q.front_rank())
                    .map(|e| e.1)
                    .collect();
                assert_eq!(front, want);
            }
        });
    }

    #[test]
    fn engine_refresh_resets_state_only_on_epoch_change() {
        let (params, stats) = schemas();
        let prog = Arc::new(
            Program::parse("when all do rank wfq(1)", &params, &stats)
                .unwrap()
                .with_epoch(1),
        );
        let mut eng = PolicyEngine::new(Arc::clone(&prog), 8);
        eng.decide(&req(0, ReqClass::Read, 64), &[], &[], Time::ZERO);
        let tagged = eng.decide(&req(0, ReqClass::Read, 64), &[], &[], Time::ZERO);
        assert!(tagged.rank > 0);
        eng.refresh(Arc::clone(&prog));
        let same = eng.decide(&req(0, ReqClass::Read, 64), &[], &[], Time::ZERO);
        assert!(same.rank > tagged.rank, "same epoch keeps flow state");
        let reinstalled = Arc::new(Program::clone(&prog).with_epoch(2));
        eng.refresh(reinstalled);
        let fresh = eng.decide(&req(0, ReqClass::Read, 64), &[], &[], Time::ZERO);
        assert_eq!(fresh.rank, 0, "new epoch resets the virtual clock");
    }

    #[test]
    fn comments_and_semicolons_split_rules() {
        let (params, stats) = schemas();
        let prog = Program::parse(
            "# header comment\nwhen ds == 1 do rank 0; when all do rank 1",
            &params,
            &stats,
        )
        .unwrap();
        assert_eq!(prog.rules().len(), 2);
    }
}
