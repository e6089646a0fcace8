//! Differential tests of the interpreter optimisation levels.
//!
//! Every [`VmOpt`] level must be observationally identical: same exit, same
//! virtual clock, same register file, same analysis event stream (payloads
//! *and* per-tool order), same mode-invariant [`VmStats`] — including at
//! awkward boundaries (fuel running out mid-block, tool ticks landing
//! inside would-be-fast blocks).

use tq_isa::{Asm, BrCond, Inst, MemWidth, Program, Reg};
use tq_vm::{layout, standard_mask, Event, InsContext, Tool, Vm, VmOpt, VmStats};

/// Records every event it can subscribe to, optionally ticking.
struct Recorder {
    events: Vec<Event>,
    tick: Option<u64>,
}

impl Recorder {
    fn new(tick: Option<u64>) -> Recorder {
        Recorder {
            events: Vec::new(),
            tick,
        }
    }
}

impl Tool for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn tick_interval(&self) -> Option<u64> {
        self.tick
    }
    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> u8 {
        standard_mask(ins)
    }
    fn on_event(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

/// A memory-heavy counted loop (store + load-modify-store + induction
/// branch): the shapes the fusion peephole targets.
fn loop_program(iters: i32) -> Program {
    let mut a = Asm::new();
    a.begin_routine("main").unwrap();
    a.emit(Inst::Li {
        rd: Reg(1),
        imm: layout::GLOBALS_BASE as i32,
    });
    a.emit(Inst::Li { rd: Reg(2), imm: 0 }); // i
    a.emit(Inst::Li {
        rd: Reg(3),
        imm: iters,
    });
    a.label("loop").unwrap();
    // addr compute + store (fuses to OpSt only when the value reg matches —
    // here it exercises AddrLd/LdOpSt shapes instead).
    a.emit(Inst::AddI {
        rd: Reg(4),
        rs1: Reg(1),
        imm: 64,
    });
    a.emit(Inst::St {
        rs: Reg(2),
        base: Reg(4),
        off: 0,
        width: MemWidth::B8,
    });
    // in-place update triple at a second slot
    a.emit(Inst::Ld {
        rd: Reg(5),
        base: Reg(1),
        off: 8,
        width: MemWidth::B8,
    });
    a.emit(Inst::AddI {
        rd: Reg(5),
        rs1: Reg(5),
        imm: 3,
    });
    a.emit(Inst::St {
        rs: Reg(5),
        base: Reg(1),
        off: 8,
        width: MemWidth::B8,
    });
    // induction step + branch (fuses to IncBr)
    a.emit(Inst::AddI {
        rd: Reg(2),
        rs1: Reg(2),
        imm: 1,
    });
    a.br(BrCond::Lt, Reg(2), Reg(3), "loop");
    a.emit(Inst::Halt);
    let img = a.finish("main", layout::MAIN_TEXT_BASE, true).unwrap();
    let entry = img.routines[0].start;
    Program::new(img, entry)
}

struct Outcome {
    result: Result<(tq_vm::ExitReason, u64), String>,
    regs: Vec<u64>,
    events: Vec<Event>,
    stats: VmStats,
}

fn run_mode(program: Program, opt: VmOpt, fuel: Option<u64>, tick: Option<u64>) -> Outcome {
    let mut vm = Vm::new(program).unwrap();
    vm.set_vm_opt(opt);
    let h = vm.attach_tool(Box::new(Recorder::new(tick)));
    let result = match vm.run(fuel) {
        Ok(exit) => Ok((exit.reason, exit.icount)),
        Err(e) => Err(e.to_string()),
    };
    let regs = (0..32).map(|i| vm.reg(Reg(i))).collect();
    let stats = *vm.stats();
    let rec = vm.detach_tool::<Recorder>(h).unwrap();
    Outcome {
        result,
        regs,
        events: rec.events,
        stats,
    }
}

fn assert_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.result, b.result, "{what}: exit mismatch");
    assert_eq!(a.regs, b.regs, "{what}: register file mismatch");
    assert_eq!(a.events.len(), b.events.len(), "{what}: event count");
    assert_eq!(a.events, b.events, "{what}: event stream mismatch");
    // Mode-invariant stats.
    assert_eq!(a.stats.block_execs, b.stats.block_execs, "{what}");
    assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "{what}");
    assert_eq!(a.stats.events_delivered, b.stats.events_delivered, "{what}");
    assert_eq!(a.stats.mem_reads, b.stats.mem_reads, "{what}");
    assert_eq!(a.stats.mem_writes, b.stats.mem_writes, "{what}");
    assert_eq!(a.stats.blocks_built, b.stats.blocks_built, "{what}");
    assert_eq!(a.stats.instrument_calls, b.stats.instrument_calls, "{what}");
}

#[test]
fn modes_agree_on_memory_loop() {
    let off = run_mode(loop_program(500), VmOpt::Off, None, None);
    let fuse = run_mode(loop_program(500), VmOpt::Fuse, None, None);

    assert_identical(&off, &fuse, "off vs fuse");

    // The machinery actually engaged.
    assert_eq!(off.stats.blocks_fused, 0);
    assert!(fuse.stats.blocks_fused >= 1, "fusion found no blocks");
}

#[test]
fn fuel_exhaustion_mid_block_is_identical() {
    // Fuel chosen to run out in the middle of the loop body, at several
    // iteration depths.
    for fuel in [10, 647, 1201, 2003] {
        let off = run_mode(loop_program(500), VmOpt::Off, Some(fuel), None);
        let fuse = run_mode(loop_program(500), VmOpt::Fuse, Some(fuel), None);
        assert!(
            off.result.as_ref().is_err(),
            "fuel {fuel} unexpectedly sufficed"
        );
        assert_identical(&off, &fuse, "off vs fuse (fuel)");
    }
    // Sanity: the error really is fuel exhaustion.
    let out = run_mode(loop_program(500), VmOpt::Fuse, Some(1201), None);
    assert!(out.result.unwrap_err().contains("budget exhausted"));
}

#[test]
fn tick_boundaries_are_identical() {
    // A prime tick interval lands ticks at every possible offset inside
    // blocks.
    let off = run_mode(loop_program(300), VmOpt::Off, None, Some(7));
    let fuse = run_mode(loop_program(300), VmOpt::Fuse, None, Some(7));
    assert!(
        off.events.iter().any(|e| matches!(e, Event::Tick { .. })),
        "test delivered no ticks"
    );
    assert_identical(&off, &fuse, "off vs fuse (ticks)");
}

#[test]
fn on_events_default_forwards_in_order() {
    struct Seen(Vec<u64>);
    impl Tool for Seen {
        fn name(&self) -> &str {
            "seen"
        }
        fn instrument_ins(&mut self, _: &InsContext<'_>) -> u8 {
            0
        }
        fn on_event(&mut self, ev: &Event) {
            if let Event::Tick { icount, .. } = ev {
                self.0.push(*icount);
            }
        }
    }
    let mk = |icount| Event::Tick {
        icount,
        ip: 0,
        rtn: tq_isa::RoutineId::INVALID,
    };
    let mut t = Seen(Vec::new());
    t.on_events(&[mk(1), mk(2), mk(3)]);
    assert_eq!(t.0, vec![1, 2, 3]);
}
