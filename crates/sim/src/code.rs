//! Scheduled, register-allocated machine code.
//!
//! A [`MachineProgram`] is the compiler's output: one fully-inlined function
//! whose blocks are sequences of [`Bundle`]s (VLIW issue groups). Register
//! operands reuse the IR's [`Inst`] structure but are *physical* register
//! indices into the class-specific files of a [`MachineConfig`].

use crate::machine::{unit_of, MachineConfig, UnitKind};
use metaopt_ir::{Inst, Opcode};

/// One VLIW issue group: instructions the scheduler placed in the same cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bundle {
    /// Slots, executed with sequential semantics (the scheduler only bundles
    /// independent instructions, so this matches EQ-model hardware).
    pub insts: Vec<Inst>,
}

/// A scheduled machine program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineProgram {
    /// Blocks of bundles; `Inst::target` indexes this vector.
    pub blocks: Vec<Vec<Bundle>>,
    /// Entry block index.
    pub entry: usize,
}

impl MachineProgram {
    /// Total instructions (static).
    pub fn num_insts(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|bu| bu.insts.len())
            .sum()
    }

    /// Total bundles (static schedule length).
    pub fn num_bundles(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Append a compact, injective byte encoding of the program to `out`.
    ///
    /// Two programs encode to the same bytes exactly when `entry`, the
    /// block and bundle boundaries, and every field of every instruction
    /// agree, with `fimm` compared by bit pattern: `0.0` and `-0.0`
    /// differ, and a NaN matches only the same NaN payload (unlike the
    /// derived `PartialEq`). Injectivity holds because every sequence is
    /// length-prefixed, and each instruction is a one-byte opcode
    /// ([`Opcode::code`]) and a flags byte saying which of the optional
    /// fields follow, each as a prefix-free LEB128 varint. An omitted
    /// `imm` or `fimm` is zero (`fimm` bits zero, i.e. `+0.0`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.entry as u64);
        put_varint(out, self.blocks.len() as u64);
        for block in &self.blocks {
            put_varint(out, block.len() as u64);
            for bundle in block {
                put_varint(out, bundle.insts.len() as u64);
                for inst in &bundle.insts {
                    // Zigzag keeps small negative offsets short.
                    let imm = ((inst.imm << 1) ^ (inst.imm >> 63)) as u64;
                    let fimm = inst.fimm.to_bits();
                    let nargs = inst.args.len().min(ARGS_FOLLOW);
                    let flags = u8::from(inst.dst.is_some())
                        | u8::from(inst.target.is_some()) << 1
                        | u8::from(inst.pred.is_some()) << 2
                        | u8::from(imm != 0) << 3
                        | u8::from(fimm != 0) << 4
                        | (nargs as u8) << 5;
                    out.extend_from_slice(&[inst.op.code(), flags]);
                    if nargs == ARGS_FOLLOW {
                        put_varint(out, inst.args.len() as u64);
                    }
                    let present = [
                        inst.dst.map(|r| u64::from(r.0)),
                        inst.target.map(|t| u64::from(t.0)),
                        inst.pred.map(|p| u64::from(p.0)),
                        (imm != 0).then_some(imm),
                        (fimm != 0).then_some(fimm),
                    ];
                    let args = inst.args.iter().map(|a| u64::from(a.0));
                    for v in present.into_iter().flatten().chain(args) {
                        put_varint(out, v);
                    }
                }
            }
        }
    }
}

/// The 3-bit argument count in an encoded instruction's flags byte; at
/// this value the real count follows as a varint.
const ARGS_FOLLOW: usize = 7;

/// LEB128: seven bits per byte, high bit set on all but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Check that `mp` is executable on `cfg`: per-bundle functional-unit usage
/// within limits, physical register indices within the files, control
/// transfers only in the last slot of a bundle, each block terminated by an
/// unconditional `Br`/`Ret`, targets in range, and no residual `Call`s.
///
/// # Errors
/// Returns a description of the first violation.
pub fn verify_machine(mp: &MachineProgram, cfg: &MachineConfig) -> Result<(), String> {
    if mp.entry >= mp.blocks.len() {
        return Err("entry block out of range".into());
    }
    for (bi, block) in mp.blocks.iter().enumerate() {
        let Some(last_bundle) = block.last() else {
            return Err(format!("block {bi} is empty"));
        };
        match last_bundle.insts.last().map(|i| i.op) {
            Some(Opcode::Br | Opcode::Ret) => {}
            other => {
                return Err(format!(
                    "block {bi} must end with br/ret, ends with {other:?}"
                ))
            }
        }
        for (ki, bundle) in block.iter().enumerate() {
            let mut used = [0usize; 4];
            for (si, inst) in bundle.insts.iter().enumerate() {
                if inst.op == Opcode::Call {
                    return Err(format!("block {bi} bundle {ki}: residual call"));
                }
                let u = unit_of(inst.op);
                used[match u {
                    UnitKind::Int => 0,
                    UnitKind::Float => 1,
                    UnitKind::Mem => 2,
                    UnitKind::Branch => 3,
                }] += 1;
                if inst.op.is_control() && si + 1 != bundle.insts.len() {
                    return Err(format!(
                        "block {bi} bundle {ki}: control instruction not in last slot"
                    ));
                }
                if let Some(t) = inst.target {
                    if t.index() >= mp.blocks.len() {
                        return Err(format!("block {bi} bundle {ki}: target {t} out of range"));
                    }
                }
                // Register ranges.
                if let Some(classes) = inst.op.arg_classes() {
                    for (a, c) in inst.args.iter().zip(classes) {
                        if a.index() >= cfg.file_size(*c) {
                            return Err(format!(
                                "block {bi} bundle {ki}: {c} register {a} out of file"
                            ));
                        }
                    }
                } else if inst.op == Opcode::Ret {
                    for a in &inst.args {
                        if a.index() >= cfg.gpr {
                            return Err(format!("block {bi}: ret register {a} out of file"));
                        }
                    }
                }
                if let (Some(c), Some(d)) = (inst.op.dst_class(), inst.dst) {
                    if d.index() >= cfg.file_size(c) {
                        return Err(format!(
                            "block {bi} bundle {ki}: {c} destination {d} out of file"
                        ));
                    }
                }
                if let Some(p) = inst.pred {
                    if p.index() >= cfg.pred {
                        return Err(format!("block {bi} bundle {ki}: guard {p} out of file"));
                    }
                }
            }
            if used[0] > cfg.int_units
                || used[1] > cfg.fp_units
                || used[2] > cfg.mem_units
                || used[3] > cfg.branch_units
            {
                return Err(format!(
                    "block {bi} bundle {ki}: unit over-subscription {used:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::VReg;

    fn ret_bundle() -> Bundle {
        Bundle {
            insts: vec![Inst::new(Opcode::Ret)],
        }
    }

    fn one_block(bundles: Vec<Bundle>) -> MachineProgram {
        MachineProgram {
            blocks: vec![bundles],
            entry: 0,
        }
    }

    #[test]
    fn accepts_minimal_program() {
        let mp = one_block(vec![ret_bundle()]);
        assert!(verify_machine(&mp, &MachineConfig::table3()).is_ok());
    }

    #[test]
    fn rejects_unit_oversubscription() {
        let mut b = Bundle::default();
        for _ in 0..5 {
            // 5 int ops > 4 int units
            b.insts.push(
                Inst::new(Opcode::Add)
                    .dst(VReg(0))
                    .args(&[VReg(1), VReg(2)]),
            );
        }
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("over-subscription"), "{e}");
    }

    #[test]
    fn rejects_register_out_of_file() {
        let b = Bundle {
            insts: vec![Inst::new(Opcode::Add)
                .dst(VReg(64))
                .args(&[VReg(0), VReg(1)])],
        };
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("destination"), "{e}");
    }

    #[test]
    fn rejects_control_mid_bundle() {
        let b = Bundle {
            insts: vec![
                Inst::new(Opcode::Br).target(metaopt_ir::BlockId(0)),
                Inst::new(Opcode::MovI).dst(VReg(0)).imm(1),
            ],
        };
        let mp = one_block(vec![b, ret_bundle()]);
        let e = verify_machine(&mp, &MachineConfig::table3()).unwrap_err();
        assert!(e.contains("not in last slot"), "{e}");
    }

    #[test]
    fn rejects_missing_terminator() {
        let b = Bundle {
            insts: vec![Inst::new(Opcode::MovI).dst(VReg(0)).imm(1)],
        };
        let mp = one_block(vec![b]);
        assert!(verify_machine(&mp, &MachineConfig::table3()).is_err());
    }

    #[test]
    fn counts_insts_and_bundles() {
        let mp = one_block(vec![
            Bundle {
                insts: vec![Inst::new(Opcode::MovI).dst(VReg(0)).imm(1)],
            },
            ret_bundle(),
        ]);
        assert_eq!(mp.num_insts(), 2);
        assert_eq!(mp.num_bundles(), 2);
    }
}
