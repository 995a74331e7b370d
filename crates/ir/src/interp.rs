//! Reference interpreter and profiler.
//!
//! Executes a [`Program`] directly on the IR, defining the semantic ground
//! truth for the compiler and the cycle simulator. Optionally collects the
//! execution [`Profile`] (block/edge counts, branch predictability) that the
//! optimization passes consume.

use crate::inst::{Opcode, Width};
use crate::profile::{BranchStats, FuncProfile, Profile};
use crate::program::{Program, UNSAFE_SCRATCH_BASE};
use crate::types::{BlockId, FuncId, RegClass, VReg};
use std::fmt;

/// Interpreter failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The configured step limit was exceeded (probable infinite loop).
    StepLimit(u64),
    /// A memory access fell outside the program's memory image.
    OutOfBounds {
        /// The faulting byte address.
        addr: i64,
    },
    /// The requested entry function does not exist.
    NoEntry(String),
    /// Call stack exceeded the hard limit.
    StackOverflow,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            InterpError::OutOfBounds { addr } => write!(f, "memory access out of bounds at {addr}"),
            InterpError::NoEntry(n) => write!(f, "no entry function named {n}"),
            InterpError::StackOverflow => write!(f, "call stack overflow"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Configuration for a run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Integer arguments passed to the entry function's parameters.
    pub args: Vec<i64>,
    /// Maximum dynamic instructions before aborting.
    pub max_steps: u64,
    /// Collect a [`Profile`]?
    pub profile: bool,
    /// Entry function name (`main` or function 0 by default).
    pub entry: Option<String>,
    /// Initial memory image override (defaults to
    /// [`Program::initial_memory`]).
    pub memory: Option<Vec<u8>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            args: Vec::new(),
            max_steps: crate::budget::DEFAULT_MAX_STEPS,
            profile: false,
            entry: None,
            memory: None,
        }
    }
}

/// Result of a successful run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Value returned by the entry function (0 if it returned nothing).
    pub ret: i64,
    /// Dynamic instructions executed (including nullified predicated ones).
    pub steps: u64,
    /// Execution profile, if requested.
    pub profile: Option<Profile>,
    /// Final memory image.
    pub memory: Vec<u8>,
}

/// Saturating `f64 -> i64` conversion shared by interpreter and simulator.
#[inline]
pub fn f2i_sat(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else {
        v as i64 // Rust float->int casts saturate
    }
}

/// Deterministic semantics of [`Opcode::UnsafeCall`], shared by interpreter
/// and simulator: mixes the argument with the old scratch value.
/// Returns `(new_scratch, result)`.
#[inline]
pub fn unsafe_call_semantics(old: i64, arg: i64, site: i64) -> (i64, i64) {
    let mixed = old
        .wrapping_mul(6364136223846793005)
        .wrapping_add(arg ^ site.wrapping_mul(0x9E3779B97F4A7C15u64 as i64));
    let ret = (mixed >> 17) ^ mixed;
    (mixed, ret)
}

/// Scratch-slot address used by an `UnsafeCall` with selector `site`.
#[inline]
pub fn unsafe_call_slot(site: i64) -> i64 {
    UNSAFE_SCRATCH_BASE + (site.rem_euclid(64)) * 8
}

struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    ints: Vec<i64>,
    floats: Vec<f64>,
    preds: Vec<bool>,
    ret_dst: Option<VReg>,
}

fn new_frame(prog: &Program, func: FuncId, ret_dst: Option<VReg>) -> Frame {
    let f = prog.func(func);
    let n = f.num_vregs();
    Frame {
        func,
        block: f.entry,
        ip: 0,
        ints: vec![0; n],
        floats: vec![0.0; n],
        preds: vec![false; n],
        ret_dst,
    }
}

/// Read `w` bytes at `addr` (shared by interpreter and simulator).
///
/// # Errors
/// Returns [`InterpError::OutOfBounds`] on an out-of-range access.
#[inline]
pub fn read_mem(mem: &[u8], addr: i64, w: Width) -> Result<i64, InterpError> {
    let a = addr as usize;
    if addr < 0 || a + w.bytes() > mem.len() {
        return Err(InterpError::OutOfBounds { addr });
    }
    Ok(match w {
        Width::B1 => mem[a] as i64,
        Width::B4 => i32::from_le_bytes(mem[a..a + 4].try_into().unwrap()) as i64,
        Width::B8 => i64::from_le_bytes(mem[a..a + 8].try_into().unwrap()),
    })
}

/// Write `w` bytes at `addr` (shared by interpreter and simulator).
///
/// # Errors
/// Returns [`InterpError::OutOfBounds`] on an out-of-range access.
#[inline]
pub fn write_mem(mem: &mut [u8], addr: i64, w: Width, v: i64) -> Result<(), InterpError> {
    let a = addr as usize;
    if addr < 0 || a + w.bytes() > mem.len() {
        return Err(InterpError::OutOfBounds { addr });
    }
    match w {
        Width::B1 => mem[a] = v as u8,
        Width::B4 => mem[a..a + 4].copy_from_slice(&(v as i32).to_le_bytes()),
        Width::B8 => mem[a..a + 8].copy_from_slice(&v.to_le_bytes()),
    }
    Ok(())
}

const MAX_STACK: usize = 1024;

/// Profiler counters of one static instruction.
#[derive(Clone, Copy)]
struct SiteCounters {
    /// 2-bit saturating predictor state, shared across calls.
    counter: u8,
    /// Branch statistics (conditional branches only).
    branch: BranchStats,
    /// Times this instruction transferred control to its `target`.
    taken_edges: u64,
}

/// The profiler's run-time state. Every static instruction owns a dense
/// slot, `base[func][block] + ip`, so the hot loop indexes a `Vec` instead
/// of hashing; [`Profiler::finish`] folds the slots into the
/// [`FuncProfile`] maps once. The fold is exact: a taken edge always leads
/// to the `target` of the instruction that took it, and a map entry exists
/// exactly for the slots that counted something.
struct Profiler {
    base: Vec<Vec<usize>>,
    sites: Vec<SiteCounters>,
    block_counts: Vec<Vec<u64>>,
}

impl Profiler {
    fn new(prog: &Program) -> Self {
        let mut slots = 0;
        let base = prog
            .funcs
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| {
                        let start = slots;
                        slots += b.insts.len();
                        start
                    })
                    .collect()
            })
            .collect();
        let fresh = SiteCounters {
            counter: 1, // weakly not-taken
            branch: BranchStats::default(),
            taken_edges: 0,
        };
        Profiler {
            base,
            sites: vec![fresh; slots],
            block_counts: prog.funcs.iter().map(|f| vec![0; f.blocks.len()]).collect(),
        }
    }

    #[inline]
    fn site(&mut self, func: FuncId, block: BlockId, ip: usize) -> &mut SiteCounters {
        &mut self.sites[self.base[func.index()][block.index()] + ip]
    }

    fn finish(self, prog: &Program, dyn_insts: u64) -> Profile {
        let sites = &self.sites;
        let funcs = prog
            .funcs
            .iter()
            .zip(self.base)
            .zip(self.block_counts)
            .map(|((f, base), block_counts)| {
                let mut fp = FuncProfile {
                    block_counts,
                    ..Default::default()
                };
                for (bi, (block, start)) in f.blocks.iter().zip(base).enumerate() {
                    let b = BlockId(bi as u32);
                    for (ip, (inst, site)) in block.insts.iter().zip(&sites[start..]).enumerate() {
                        if site.branch.executed > 0 {
                            fp.branches.insert((b, ip), site.branch);
                        }
                        if site.taken_edges > 0 {
                            let t = inst.target.expect("control moved to a target");
                            *fp.edge_counts.entry((b, t)).or_insert(0) += site.taken_edges;
                        }
                    }
                }
                fp
            })
            .collect();
        Profile { funcs, dyn_insts }
    }
}

/// Execute `prog` under `cfg`.
///
/// # Errors
/// Returns an [`InterpError`] on step-limit exhaustion, out-of-bounds memory
/// access, a missing entry function, or call-stack overflow.
pub fn run(prog: &Program, cfg: &RunConfig) -> Result<Outcome, InterpError> {
    let entry = match &cfg.entry {
        Some(name) => prog
            .func_by_name(name)
            .ok_or_else(|| InterpError::NoEntry(name.clone()))?,
        None => prog.entry_func(),
    };
    let mut mem = match &cfg.memory {
        Some(m) => m.clone(),
        None => prog.initial_memory(),
    };

    let mut profiler = cfg.profile.then(|| Profiler::new(prog));

    let mut stack: Vec<Frame> = Vec::new();
    let mut frame = new_frame(prog, entry, None);
    for (i, p) in prog.func(entry).params.iter().enumerate() {
        let v = cfg.args.get(i).copied().unwrap_or(0);
        match prog.func(entry).class_of(*p) {
            RegClass::Int => frame.ints[p.index()] = v,
            RegClass::Float => frame.floats[p.index()] = v as f64,
            RegClass::Pred => frame.preds[p.index()] = v != 0,
        }
    }
    if let Some(pr) = &mut profiler {
        pr.block_counts[entry.index()][frame.block.index()] += 1;
    }

    let mut steps: u64 = 0;
    let ret_val: i64;

    'outer: loop {
        let func = prog.func(frame.func);
        let block = func.block(frame.block);
        debug_assert!(frame.ip < block.insts.len(), "fell off a block");
        let inst = &block.insts[frame.ip];
        steps += 1;
        if steps > cfg.max_steps {
            return Err(InterpError::StepLimit(cfg.max_steps));
        }

        // Guard predicate: nullified instructions advance the PC only.
        if let Some(p) = inst.pred {
            if !frame.preds[p.index()] {
                frame.ip += 1;
                continue;
            }
        }

        macro_rules! iarg {
            ($i:expr) => {
                frame.ints[inst.args[$i].index()]
            };
        }
        macro_rules! farg {
            ($i:expr) => {
                frame.floats[inst.args[$i].index()]
            };
        }
        macro_rules! parg {
            ($i:expr) => {
                frame.preds[inst.args[$i].index()]
            };
        }
        macro_rules! seti {
            ($v:expr) => {
                if let Some(d) = inst.dst {
                    frame.ints[d.index()] = $v;
                }
            };
        }
        macro_rules! setf {
            ($v:expr) => {
                if let Some(d) = inst.dst {
                    frame.floats[d.index()] = $v;
                }
            };
        }
        macro_rules! setp {
            ($v:expr) => {
                if let Some(d) = inst.dst {
                    frame.preds[d.index()] = $v;
                }
            };
        }

        let mut next_block: Option<BlockId> = None;
        match inst.op {
            Opcode::Add => seti!(iarg!(0).wrapping_add(iarg!(1))),
            Opcode::Sub => seti!(iarg!(0).wrapping_sub(iarg!(1))),
            Opcode::Mul => seti!(iarg!(0).wrapping_mul(iarg!(1))),
            Opcode::Div => {
                let b = iarg!(1);
                seti!(if b == 0 { 0 } else { iarg!(0).wrapping_div(b) })
            }
            Opcode::Rem => {
                let b = iarg!(1);
                seti!(if b == 0 { 0 } else { iarg!(0).wrapping_rem(b) })
            }
            Opcode::And => seti!(iarg!(0) & iarg!(1)),
            Opcode::Or => seti!(iarg!(0) | iarg!(1)),
            Opcode::Xor => seti!(iarg!(0) ^ iarg!(1)),
            Opcode::Shl => seti!(iarg!(0).wrapping_shl(iarg!(1) as u32 & 63)),
            Opcode::Shr => seti!(iarg!(0).wrapping_shr(iarg!(1) as u32 & 63)),
            Opcode::AddI => seti!(iarg!(0).wrapping_add(inst.imm)),
            Opcode::MulI => seti!(iarg!(0).wrapping_mul(inst.imm)),
            Opcode::AndI => seti!(iarg!(0) & inst.imm),
            Opcode::ShlI => seti!(iarg!(0).wrapping_shl(inst.imm as u32 & 63)),
            Opcode::ShrI => seti!(iarg!(0).wrapping_shr(inst.imm as u32 & 63)),
            Opcode::MovI => seti!(inst.imm),
            Opcode::Mov => seti!(iarg!(0)),
            Opcode::Neg => seti!(iarg!(0).wrapping_neg()),
            Opcode::Abs => seti!(iarg!(0).wrapping_abs()),
            Opcode::Min => seti!(iarg!(0).min(iarg!(1))),
            Opcode::Max => seti!(iarg!(0).max(iarg!(1))),
            Opcode::Sel => seti!(if parg!(0) { iarg!(1) } else { iarg!(2) }),

            Opcode::CmpEq => setp!(iarg!(0) == iarg!(1)),
            Opcode::CmpNe => setp!(iarg!(0) != iarg!(1)),
            Opcode::CmpLt => setp!(iarg!(0) < iarg!(1)),
            Opcode::CmpLe => setp!(iarg!(0) <= iarg!(1)),
            Opcode::CmpEqI => setp!(iarg!(0) == inst.imm),
            Opcode::CmpLtI => setp!(iarg!(0) < inst.imm),
            Opcode::CmpGtI => setp!(iarg!(0) > inst.imm),

            Opcode::PAnd => setp!(parg!(0) && parg!(1)),
            Opcode::POr => setp!(parg!(0) || parg!(1)),
            Opcode::PNot => setp!(!parg!(0)),
            Opcode::PMovI => setp!(inst.imm != 0),
            Opcode::PMov => setp!(parg!(0)),
            Opcode::P2I => seti!(if parg!(0) { 1 } else { 0 }),
            Opcode::I2P => setp!(iarg!(0) != 0),

            Opcode::FAdd => setf!(farg!(0) + farg!(1)),
            Opcode::FSub => setf!(farg!(0) - farg!(1)),
            Opcode::FMul => setf!(farg!(0) * farg!(1)),
            Opcode::FDiv => {
                let b = farg!(1);
                setf!(if b == 0.0 { 0.0 } else { farg!(0) / b })
            }
            Opcode::FSqrt => setf!(farg!(0).abs().sqrt()),
            Opcode::FAbs => setf!(farg!(0).abs()),
            Opcode::FNeg => setf!(-farg!(0)),
            Opcode::FMin => setf!(farg!(0).min(farg!(1))),
            Opcode::FMax => setf!(farg!(0).max(farg!(1))),
            Opcode::FMovI => setf!(inst.fimm),
            Opcode::FMov => setf!(farg!(0)),
            Opcode::FSel => setf!(if parg!(0) { farg!(1) } else { farg!(2) }),

            Opcode::FCmpEq => setp!(farg!(0) == farg!(1)),
            Opcode::FCmpLt => setp!(farg!(0) < farg!(1)),
            Opcode::FCmpLe => setp!(farg!(0) <= farg!(1)),

            Opcode::I2F => setf!(iarg!(0) as f64),
            Opcode::F2I => seti!(f2i_sat(farg!(0))),
            Opcode::FBits => seti!(farg!(0).to_bits() as i64),
            Opcode::BitsF => setf!(f64::from_bits(iarg!(0) as u64)),

            Opcode::Ld(w) => {
                let v = read_mem(&mem, iarg!(0).wrapping_add(inst.imm), w)?;
                seti!(v);
            }
            Opcode::St(w) => {
                write_mem(&mut mem, iarg!(0).wrapping_add(inst.imm), w, iarg!(1))?;
            }
            Opcode::FLd => {
                let bits = read_mem(&mem, iarg!(0).wrapping_add(inst.imm), Width::B8)?;
                setf!(f64::from_bits(bits as u64));
            }
            Opcode::FSt => {
                let bits = farg!(1).to_bits() as i64;
                write_mem(&mut mem, iarg!(0).wrapping_add(inst.imm), Width::B8, bits)?;
            }
            Opcode::Prefetch => {} // architecturally a no-op

            Opcode::Br => next_block = inst.target,
            Opcode::CBr => {
                let taken = parg!(0);
                if let Some(pr) = &mut profiler {
                    let site = pr.site(frame.func, frame.block, frame.ip);
                    let predicted_taken = site.counter >= 2;
                    site.counter = match (taken, site.counter) {
                        (true, c) => (c + 1).min(3),
                        (false, c) => c.saturating_sub(1),
                    };
                    let st = &mut site.branch;
                    st.executed += 1;
                    if taken {
                        st.taken += 1;
                    }
                    if predicted_taken == taken {
                        st.correct += 1;
                    }
                }
                if taken {
                    next_block = inst.target;
                }
            }
            Opcode::Ret => {
                let v = if inst.args.is_empty() { 0 } else { iarg!(0) };
                match stack.pop() {
                    None => {
                        ret_val = v;
                        break 'outer;
                    }
                    Some(mut parent) => {
                        if let Some(d) = frame.ret_dst {
                            parent.ints[d.index()] = v;
                        }
                        parent.ip += 1;
                        frame = parent;
                        continue 'outer;
                    }
                }
            }
            Opcode::Call => {
                if stack.len() >= MAX_STACK {
                    return Err(InterpError::StackOverflow);
                }
                let callee = FuncId(inst.imm as u32);
                let mut callee_frame = new_frame(prog, callee, inst.dst);
                let cf = prog.func(callee);
                for (ai, p) in cf.params.iter().enumerate() {
                    match cf.class_of(*p) {
                        RegClass::Int => callee_frame.ints[p.index()] = iarg!(ai),
                        RegClass::Float => callee_frame.floats[p.index()] = farg!(ai),
                        RegClass::Pred => callee_frame.preds[p.index()] = parg!(ai),
                    }
                }
                if let Some(pr) = &mut profiler {
                    pr.block_counts[callee.index()][callee_frame.block.index()] += 1;
                }
                stack.push(frame);
                frame = callee_frame;
                continue 'outer;
            }
            Opcode::UnsafeCall => {
                let slot = unsafe_call_slot(inst.imm);
                let old = read_mem(&mem, slot, Width::B8)?;
                let (new, ret) = unsafe_call_semantics(old, iarg!(0), inst.imm);
                write_mem(&mut mem, slot, Width::B8, new)?;
                seti!(ret);
            }
        }

        match next_block {
            Some(t) => {
                if let Some(pr) = &mut profiler {
                    pr.site(frame.func, frame.block, frame.ip).taken_edges += 1;
                    pr.block_counts[frame.func.index()][t.index()] += 1;
                }
                frame.block = t;
                frame.ip = 0;
            }
            None => frame.ip += 1,
        }
    }

    Ok(Outcome {
        ret: ret_val,
        steps,
        profile: profiler.map(|pr| pr.finish(prog, steps)),
        memory: mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{GlobalData, GlobalInit};
    use crate::types::RegClass;
    use std::collections::HashMap;

    fn run_main(prog: &Program) -> Outcome {
        run(prog, &RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.movi(6);
        let b = fb.movi(7);
        let c = fb.mul(a, b);
        fb.ret(Some(c));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 42);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.movi(10);
        let z = fb.movi(0);
        let d = fb.div(a, z);
        let r = fb.rem(a, z);
        let s = fb.add(d, r);
        fb.ret(Some(s));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 0);
    }

    #[test]
    fn loop_sums_range() {
        // sum 0..10 = 45
        let mut fb = FunctionBuilder::new("main");
        let hdr = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        let acc = fb.new_vreg(RegClass::Int);
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(acc).args(&[z]));
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 10);
        fb.branch(p, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(acc, i);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(acc).args(&[acc2]));
        let i2 = fb.addi(i, 1);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 45);
    }

    #[test]
    fn memory_roundtrip_and_widths() {
        let mut prog = Program::new();
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.movi(crate::program::GLOBAL_BASE);
        let v = fb.movi(-2);
        fb.st4(addr, v, 0);
        let back4 = fb.ld4(addr, 0);
        fb.st1(addr, v, 8);
        let back1 = fb.ld1(addr, 8); // zero-extended: 254
        let s = fb.add(back4, back1);
        fb.ret(Some(s));
        prog.add_global(GlobalData {
            name: "g".into(),
            size: 16,
            init: GlobalInit::Zero,
        });
        prog.add_function(fb.finish());
        assert_eq!(run_main(&prog).ret, -2 + 254);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.movi(-8);
        let v = fb.ld8(addr, 0);
        fb.ret(Some(v));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert!(matches!(
            run(&p, &RunConfig::default()),
            Err(InterpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn step_limit_detected() {
        let mut fb = FunctionBuilder::new("main");
        fb.br(BlockId(0));
        let mut p = Program::new();
        p.add_function(fb.finish());
        let cfg = RunConfig {
            max_steps: 100,
            ..Default::default()
        };
        assert!(matches!(run(&p, &cfg), Err(InterpError::StepLimit(100))));
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut callee = FunctionBuilder::new("sq");
        let x = callee.param(RegClass::Int);
        let y = callee.mul(x, x);
        callee.ret(Some(y));
        let mut main = FunctionBuilder::new("main");
        let a = main.movi(9);
        let r = main.call(0, &[a]);
        main.ret(Some(r));
        let mut p = Program::new();
        p.add_function(callee.finish());
        p.add_function(main.finish());
        assert_eq!(run_main(&p).ret, 81);
    }

    #[test]
    fn predicated_instruction_nullified() {
        let mut fb = FunctionBuilder::new("main");
        let one = fb.movi(1);
        let two = fb.movi(2);
        let pf = fb.cmp_lt(two, one); // false
        let pt = fb.cmp_lt(one, two); // true
        let out = fb.movi(0);
        fb.push(
            crate::inst::Inst::new(Opcode::MovI)
                .dst(out)
                .imm(10)
                .guarded(pf),
        );
        fb.push(
            crate::inst::Inst::new(Opcode::MovI)
                .dst(out)
                .imm(20)
                .guarded(pt),
        );
        fb.ret(Some(out));
        let mut p = Program::new();
        p.add_function(fb.finish());
        assert_eq!(run_main(&p).ret, 20);
    }

    #[test]
    fn unsafe_call_is_deterministic_and_side_effecting() {
        let build = || {
            let mut fb = FunctionBuilder::new("main");
            let a = fb.movi(5);
            let r1 = fb.unsafe_call(3, a);
            let r2 = fb.unsafe_call(3, a); // second call sees updated scratch
            let d = fb.sub(r1, r2);
            fb.ret(Some(d));
            let mut p = Program::new();
            p.add_function(fb.finish());
            p
        };
        let o1 = run_main(&build());
        let o2 = run_main(&build());
        assert_eq!(o1.ret, o2.ret);
        assert_ne!(
            o1.ret, 0,
            "two calls with same arg must differ via scratch state"
        );
    }

    #[test]
    fn profile_counts_blocks_edges_branches() {
        // if (i & 1) odd++ ; loop 10 times
        let mut fb = FunctionBuilder::new("main");
        let hdr = fb.new_block();
        let odd = fb.new_block();
        let join = fb.new_block();
        let exit = fb.new_block();
        let i = fb.new_vreg(RegClass::Int);
        let z = fb.movi(0);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[z]));
        fb.br(hdr);
        fb.switch_to(hdr);
        let p = fb.cmp_lti(i, 10);
        fb.branch(p, join, exit);
        fb.switch_to(join);
        let bit = fb.new_vreg(RegClass::Int);
        fb.push(
            crate::inst::Inst::new(Opcode::AndI)
                .dst(bit)
                .args(&[i])
                .imm(1),
        );
        let isodd = fb.new_vreg(RegClass::Pred);
        fb.push(
            crate::inst::Inst::new(Opcode::CmpEqI)
                .dst(isodd)
                .args(&[bit])
                .imm(1),
        );
        let back = fb.new_block();
        fb.branch(isodd, odd, back);
        fb.switch_to(odd);
        fb.br(back);
        fb.switch_to(back);
        let i2 = fb.addi(i, 1);
        fb.push(crate::inst::Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        fb.br(hdr);
        fb.switch_to(exit);
        fb.ret(None);
        let mut prog = Program::new();
        let fid = prog.add_function(fb.finish());
        let cfg = RunConfig {
            profile: true,
            ..Default::default()
        };
        let out = run(&prog, &cfg).unwrap();
        let prof = out.profile.unwrap();
        let fp = prof.func(fid);
        assert_eq!(fp.block_count(hdr), 11); // 10 iterations + exit test
        assert_eq!(fp.block_count(odd), 5);
        assert_eq!(fp.edge_count(hdr, exit), 1);
        // The alternating odd/even branch defeats a 2-bit predictor.
        let (_, stats) = fp
            .branches
            .iter()
            .find(|((b, _), _)| *b == join)
            .expect("branch stats recorded");
        assert_eq!(stats.executed, 10);
        assert_eq!(stats.taken, 5);
        assert!(stats.predictability() < 0.7, "{stats:?}");
    }

    #[test]
    fn profile_is_per_function_across_calls() {
        use crate::inst::Inst;
        use crate::profile::BranchStats;
        // par(x) = x & 1 through a two-way branch; main sums par(0..10).
        let mut par = FunctionBuilder::new("par");
        let x = par.param(RegClass::Int);
        let odd = par.new_block();
        let even = par.new_block();
        let bit = par.new_vreg(RegClass::Int);
        par.push(Inst::new(Opcode::AndI).dst(bit).args(&[x]).imm(1));
        let isodd = par.cmp_eqi(bit, 1);
        par.branch(isodd, odd, even); // CBr at ip 2, Br at ip 3
        par.switch_to(odd);
        let one = par.movi(1);
        par.ret(Some(one));
        par.switch_to(even);
        let zero = par.movi(0);
        par.ret(Some(zero));

        let mut main = FunctionBuilder::new("main");
        let hdr = main.new_block();
        let body = main.new_block();
        let exit = main.new_block();
        let i = main.new_vreg(RegClass::Int);
        let acc = main.new_vreg(RegClass::Int);
        let z = main.movi(0);
        main.push(Inst::new(Opcode::Mov).dst(i).args(&[z]));
        main.push(Inst::new(Opcode::Mov).dst(acc).args(&[z]));
        main.br(hdr);
        main.switch_to(hdr);
        let p = main.cmp_lti(i, 10);
        main.branch(p, body, exit); // CBr at ip 1
        main.switch_to(body);
        let r = main.call(0, &[i]);
        let acc2 = main.add(acc, r);
        main.push(Inst::new(Opcode::Mov).dst(acc).args(&[acc2]));
        let i2 = main.addi(i, 1);
        main.push(Inst::new(Opcode::Mov).dst(i).args(&[i2]));
        main.br(hdr);
        main.switch_to(exit);
        main.ret(Some(acc));

        let mut prog = Program::new();
        let par_id = prog.add_function(par.finish());
        let main_id = prog.add_function(main.finish());
        let cfg = RunConfig {
            profile: true,
            ..Default::default()
        };
        let out = run(&prog, &cfg).unwrap();
        assert_eq!(out.ret, 5);
        let prof = out.profile.unwrap();
        assert_eq!(prof.dyn_insts, out.steps);

        let b = BlockId;
        let stats = |executed, taken, correct| BranchStats {
            executed,
            taken,
            correct,
        };
        let fp = prof.func(par_id);
        assert_eq!(fp.block_counts, vec![10, 5, 5]);
        let edges = HashMap::from([((b(0), odd), 5), ((b(0), even), 5)]);
        assert_eq!(fp.edge_counts, edges);
        // Alternating outcomes from a weakly-not-taken start: every
        // not-taken call is predicted, every taken one is missed.
        assert_eq!(fp.branches, HashMap::from([((b(0), 2), stats(10, 5, 5))]));

        let fp = prof.func(main_id);
        assert_eq!(fp.block_counts, vec![1, 11, 10, 1]);
        let edges = HashMap::from([
            ((b(0), hdr), 1),
            ((hdr, body), 10),
            ((body, hdr), 10),
            ((hdr, exit), 1),
        ]);
        assert_eq!(fp.edge_counts, edges);
        // Mispredicted on the first iteration and on loop exit only.
        assert_eq!(fp.branches, HashMap::from([((hdr, 1), stats(11, 10, 9))]));
    }
}
