//! Superinstruction dispatch plan over a cached basic block.
//!
//! At decode time (so, once per block — the same place Pin pays its
//! instrumentation costs) [`build_ops`] runs the [`tq_isa::fuse_window`]
//! peephole over the block body and produces the *dispatch plan*: a dense
//! array of [`BlockOp`]s where the dominant pairs/triples collapse into one
//! [`tq_isa::Fused`] op each. Execution then makes one dispatch decision per
//! `BlockOp` instead of per instruction.
//!
//! Fused execution is semantically the constituent instructions run in
//! original order: the virtual clock advances once per constituent, register
//! effects land in constituent order (so intra-group aliasing behaves
//! exactly as unfused), and memory events fire against the constituent's own
//! [`DecodedInst`] — same `ip`, same `icount`, same hook set. A memory fault
//! inside a group leaves precisely the architectural state the unfused
//! sequence would have left.

use crate::vm::{Block, DecodedInst, Next, Vm, VmError};
use tq_isa::{Fused, Inst};

/// One dispatch unit of a block: either a plain instruction (by index into
/// `Block::insts`) or a fused group starting at `base`.
pub(crate) enum BlockOp {
    /// Execute `Block::insts[i]` as-is.
    Single(u16),
    /// Execute the fused group covering `insts[base .. base + f.arity()]`.
    Fused {
        /// The superinstruction.
        f: Fused,
        /// Index of the first constituent in `Block::insts`.
        base: u16,
    },
}

/// Build the fused dispatch plan for a decoded block body.
///
/// A group is never allowed to start at a routine head: the routine-entry
/// event must fire from the plain path before any constituent executes.
pub(crate) fn build_ops(insts: &[DecodedInst]) -> Box<[BlockOp]> {
    let mut ops = Vec::with_capacity(insts.len());
    let mut i = 0usize;
    while i < insts.len() {
        let fusable_here = !(i == 0 && insts[0].rtn_enter);
        if fusable_here {
            let end = (i + 3).min(insts.len());
            let mut w = [Inst::Nop; 3];
            for (k, d) in insts[i..end].iter().enumerate() {
                w[k] = d.inst;
            }
            if let Some((f, n)) = tq_isa::fuse_window(&w[..end - i]) {
                ops.push(BlockOp::Fused { f, base: i as u16 });
                i += n;
                continue;
            }
        }
        ops.push(BlockOp::Single(i as u16));
        i += 1;
    }
    ops.into_boxed_slice()
}

/// Execute one [`BlockOp`] on the *fast* path: the caller has already
/// guaranteed that neither the fuel limit nor a tick boundary can fall
/// inside the remainder of the block, so per-instruction checks are
/// skipped.
#[inline]
pub(crate) fn exec_op(vm: &mut Vm, block: &Block, op: &BlockOp) -> Result<Next, VmError> {
    match *op {
        BlockOp::Single(i) => {
            let d = &block.insts[i as usize];
            vm.icount += 1;
            vm.fire_rtn_enter(d);
            vm.exec(d)
        }
        BlockOp::Fused { ref f, base } => exec_fused(vm, block, f, base),
    }
}

/// Execute a fused group. Register reads happen at each constituent's turn
/// (from the live register file), so intra-group def-use chains and aliasing
/// match the unfused interpreter exactly.
fn exec_fused(vm: &mut Vm, block: &Block, f: &Fused, base: u16) -> Result<Next, VmError> {
    let merr = |pc: u64| move |err| VmError::Mem { pc, err };
    match *f {
        Fused::AddrLd {
            a_rd,
            a_rs1,
            a_imm,
            rd,
            off,
            width,
        } => {
            vm.icount += 1;
            let addr = vm.regs[a_rs1.idx()].wrapping_add(a_imm as i64 as u64);
            vm.regs[a_rd.idx()] = addr;

            let d = &block.insts[base as usize + 1];
            vm.icount += 1;
            let ea = addr.wrapping_add(off as i64 as u64);
            let size = width.bytes();
            let v = vm.mem.read_uint(ea, size).map_err(merr(d.pc))?;
            vm.regs[rd.idx()] = v;
            vm.fire_mem_read(d, ea, size, false);
        }
        Fused::AddrFLd {
            a_rd,
            a_rs1,
            a_imm,
            fd,
            off,
        } => {
            vm.icount += 1;
            let addr = vm.regs[a_rs1.idx()].wrapping_add(a_imm as i64 as u64);
            vm.regs[a_rd.idx()] = addr;

            let d = &block.insts[base as usize + 1];
            vm.icount += 1;
            let ea = addr.wrapping_add(off as i64 as u64);
            let v = vm.mem.read_f64(ea).map_err(merr(d.pc))?;
            vm.fregs[fd.idx()] = v;
            vm.fire_mem_read(d, ea, 8, false);
        }
        Fused::LdOp {
            rd,
            base: b,
            off,
            width,
            o_rd,
            o_imm,
        } => {
            let d = &block.insts[base as usize];
            vm.icount += 1;
            let ea = vm.regs[b.idx()].wrapping_add(off as i64 as u64);
            let size = width.bytes();
            let v = vm.mem.read_uint(ea, size).map_err(merr(d.pc))?;
            vm.regs[rd.idx()] = v;
            vm.fire_mem_read(d, ea, size, false);

            vm.icount += 1;
            vm.regs[o_rd.idx()] = v.wrapping_add(o_imm as i64 as u64);
        }
        Fused::OpSt {
            a_rd,
            a_rs1,
            a_imm,
            base: b,
            off,
            width,
        } => {
            vm.icount += 1;
            let val = vm.regs[a_rs1.idx()].wrapping_add(a_imm as i64 as u64);
            vm.regs[a_rd.idx()] = val;

            let d = &block.insts[base as usize + 1];
            vm.icount += 1;
            // The store base may alias `a_rd`; read it after the op landed.
            let ea = vm.regs[b.idx()].wrapping_add(off as i64 as u64);
            let size = width.bytes();
            vm.mem.write_uint(ea, size, val).map_err(merr(d.pc))?;
            vm.fire_mem_write(d, ea, size);
        }
        Fused::LdOpSt {
            rd,
            base: b,
            off,
            width,
            o_rd,
            o_imm,
            s_base,
            s_off,
            s_width,
        } => {
            let d = &block.insts[base as usize];
            vm.icount += 1;
            let ea = vm.regs[b.idx()].wrapping_add(off as i64 as u64);
            let size = width.bytes();
            let v = vm.mem.read_uint(ea, size).map_err(merr(d.pc))?;
            vm.regs[rd.idx()] = v;
            vm.fire_mem_read(d, ea, size, false);

            vm.icount += 1;
            let w = v.wrapping_add(o_imm as i64 as u64);
            vm.regs[o_rd.idx()] = w;

            let d = &block.insts[base as usize + 2];
            vm.icount += 1;
            // The store base may alias `rd` or `o_rd`; read it live.
            let s_ea = vm.regs[s_base.idx()].wrapping_add(s_off as i64 as u64);
            let s_size = s_width.bytes();
            vm.mem.write_uint(s_ea, s_size, w).map_err(merr(d.pc))?;
            vm.fire_mem_write(d, s_ea, s_size);
        }
        Fused::IncBr {
            a_rd,
            a_rs1,
            a_imm,
            cond,
            rs1,
            rs2,
            target,
        } => {
            vm.icount += 1;
            vm.regs[a_rd.idx()] = vm.regs[a_rs1.idx()].wrapping_add(a_imm as i64 as u64);

            vm.icount += 1;
            if cond.eval(vm.regs[rs1.idx()], vm.regs[rs2.idx()]) {
                return Ok(Next::Jump(target as u64));
            }
        }
    }
    Ok(Next::Fall)
}
