//! A simple architectural interpreter — the golden model.
//!
//! The interpreter executes programs one instruction at a time against a flat
//! paged memory, with no caches, TLBs or pipelining. It defines the
//! *architectural* semantics that the cycle-level out-of-order core in
//! `mbu-cpu` must match exactly; differential tests between the two catch
//! modeling bugs in either.
//!
//! It is also used by the workload crate to compute golden outputs quickly.

use crate::instr::{decode, Instruction, Reg};
use crate::program::{Program, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use crate::sys;
use std::collections::BTreeMap;
use std::fmt;

/// An architectural trap: the reason a program was terminated abnormally.
///
/// Traps are "process crashes" in the paper's fault-effect taxonomy (§III.C):
/// the simulated program is abnormally terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Fetched word does not decode to a valid instruction.
    UndefinedInstruction { pc: u32, word: u32 },
    /// Load/store/fetch address has the wrong alignment.
    Misaligned { pc: u32, addr: u32 },
    /// Access to an unmapped virtual address or with wrong permissions.
    Segfault { pc: u32, addr: u32 },
    /// Integer division by zero.
    DivisionByZero { pc: u32 },
    /// Unknown syscall number.
    BadSyscall { pc: u32, number: u32 },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trap::UndefinedInstruction { pc, word } => {
                write!(f, "undefined instruction 0x{word:08x} at pc 0x{pc:08x}")
            }
            Trap::Misaligned { pc, addr } => {
                write!(f, "misaligned access to 0x{addr:08x} at pc 0x{pc:08x}")
            }
            Trap::Segfault { pc, addr } => {
                write!(f, "segmentation fault at 0x{addr:08x}, pc 0x{pc:08x}")
            }
            Trap::DivisionByZero { pc } => write!(f, "division by zero at pc 0x{pc:08x}"),
            Trap::BadSyscall { pc, number } => {
                write!(f, "unknown syscall {number} at pc 0x{pc:08x}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// Why an interpreter run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `SYS_EXIT`.
    Exited {
        /// Exit code passed in `r3`.
        code: u32,
    },
    /// The step limit was reached before the program exited.
    StepLimit,
}

/// Result of a completed interpreter run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Bytes the program wrote through `SYS_PUTC`/`SYS_PUTW`.
    pub output: Vec<u8>,
    /// Number of instructions executed.
    pub instructions: u64,
}

const PAGE_SIZE: u32 = 4096;

/// Flat paged byte memory with unmapped holes.
#[derive(Debug, Clone, Default)]
pub struct FlatMemory {
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
}

impl FlatMemory {
    /// Creates an empty memory (all addresses unmapped).
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps the pages covering `[base, base+len)` (idempotent), zero-filled.
    pub fn map_range(&mut self, base: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = base / PAGE_SIZE;
        let last = (base + len - 1) / PAGE_SIZE;
        for vpn in first..=last {
            self.pages
                .entry(vpn)
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        }
    }

    /// Reads one byte; `None` if unmapped.
    pub fn read_u8(&self, addr: u32) -> Option<u8> {
        self.pages
            .get(&(addr / PAGE_SIZE))
            .map(|p| p[(addr % PAGE_SIZE) as usize])
    }

    /// Writes one byte; `false` if unmapped.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> bool {
        match self.pages.get_mut(&(addr / PAGE_SIZE)) {
            Some(p) => {
                p[(addr % PAGE_SIZE) as usize] = value;
                true
            }
            None => false,
        }
    }

    /// Reads a little-endian value of `width` bytes; `None` if any byte is unmapped.
    pub fn read_le(&self, addr: u32, width: u32) -> Option<u32> {
        let mut v = 0u32;
        for i in 0..width {
            v |= (self.read_u8(addr + i)? as u32) << (8 * i);
        }
        Some(v)
    }

    /// Writes a little-endian value of `width` bytes; `false` if any byte is unmapped.
    pub fn write_le(&mut self, addr: u32, width: u32, value: u32) -> bool {
        for i in 0..width {
            if !self.write_u8(addr + i, (value >> (8 * i)) as u8) {
                return false;
            }
        }
        true
    }
}

/// The architectural interpreter.
///
/// # Example
///
/// ```
/// use mbu_isa::{asm::assemble, interp::ArchInterpreter};
/// let p = assemble(".text\nmain:\nli r2, 0\nli r3, 42\nsyscall\n")?;
/// let run = ArchInterpreter::new(&p).run(1000)?;
/// assert_eq!(run.stop, mbu_isa::interp::StopReason::Exited { code: 42 });
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArchInterpreter {
    regs: [u32; 16],
    pc: u32,
    mem: FlatMemory,
    output: Vec<u8>,
}

impl ArchInterpreter {
    /// Loads a program: text at [`TEXT_BASE`], data at [`DATA_BASE`] (plus a
    /// 64 KB heap margin), and a [`STACK_SIZE`] stack below [`STACK_TOP`].
    pub fn new(program: &Program) -> Self {
        let mut mem = FlatMemory::new();
        mem.map_range(TEXT_BASE, (program.text.len().max(1) * 4) as u32);
        let data_len = program.data.len() as u32 + 64 * 1024;
        mem.map_range(DATA_BASE, data_len);
        mem.map_range(STACK_TOP - STACK_SIZE, STACK_SIZE);
        for (i, word) in program.text.iter().enumerate() {
            mem.write_le(TEXT_BASE + (i * 4) as u32, 4, *word);
        }
        for (i, byte) in program.data.iter().enumerate() {
            mem.write_u8(DATA_BASE + i as u32, *byte);
        }
        let mut regs = [0u32; 16];
        regs[Reg::SP.index() as usize] = STACK_TOP;
        Self {
            regs,
            pc: program.entry,
            mem,
            output: Vec::new(),
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes an architectural register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Immutable access to the memory.
    pub fn memory(&self) -> &FlatMemory {
        &self.mem
    }

    /// Mutable access to the memory (for test setup).
    pub fn memory_mut(&mut self) -> &mut FlatMemory {
        &mut self.mem
    }

    /// Executes a single instruction.
    ///
    /// Returns `Ok(Some(code))` if the program exited with `code`, `Ok(None)`
    /// to continue.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any architectural fault.
    pub fn step(&mut self) -> Result<Option<u32>, Trap> {
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(Trap::Misaligned { pc, addr: pc });
        }
        let word = self
            .mem
            .read_le(pc, 4)
            .ok_or(Trap::Segfault { pc, addr: pc })?;
        let instr = decode(word).map_err(|_| Trap::UndefinedInstruction { pc, word })?;
        let mut next = pc.wrapping_add(4);
        match instr {
            Instruction::Nop => {}
            Instruction::Alu { op, rd, rs, rt } => {
                let v = op
                    .apply(self.reg(rs), self.reg(rt))
                    .ok_or(Trap::DivisionByZero { pc })?;
                self.set_reg(rd, v);
            }
            Instruction::AluImm { op, rd, rs, imm } => {
                self.set_reg(rd, op.apply(self.reg(rs), imm));
            }
            Instruction::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 16),
            Instruction::Load {
                width,
                signed,
                rd,
                rs,
                offset,
            } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let bytes = width.bytes();
                if !addr.is_multiple_of(bytes) {
                    return Err(Trap::Misaligned { pc, addr });
                }
                let raw = self
                    .mem
                    .read_le(addr, bytes)
                    .ok_or(Trap::Segfault { pc, addr })?;
                let v = if signed {
                    match bytes {
                        1 => raw as u8 as i8 as i32 as u32,
                        2 => raw as u16 as i16 as i32 as u32,
                        _ => raw,
                    }
                } else {
                    raw
                };
                self.set_reg(rd, v);
            }
            Instruction::Store {
                width,
                rt,
                rs,
                offset,
            } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let bytes = width.bytes();
                if !addr.is_multiple_of(bytes) {
                    return Err(Trap::Misaligned { pc, addr });
                }
                if !self.mem.write_le(addr, bytes, self.reg(rt)) {
                    return Err(Trap::Segfault { pc, addr });
                }
            }
            Instruction::Branch {
                cond,
                rs,
                rt,
                offset,
            } => {
                if cond.eval(self.reg(rs), self.reg(rt)) {
                    next = pc
                        .wrapping_add(4)
                        .wrapping_add((offset as i32 as u32).wrapping_mul(4));
                }
            }
            Instruction::J { target } => next = target << 2,
            Instruction::Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next = target << 2;
            }
            Instruction::Jr { rs } => next = self.reg(rs),
            Instruction::Jalr { rd, rs } => {
                let t = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next = t;
            }
            Instruction::Syscall => {
                let number = self.reg(Reg::new(2));
                let arg = self.reg(Reg::new(3));
                match number {
                    sys::EXIT => return Ok(Some(arg)),
                    sys::PUTC => self.output.push(arg as u8),
                    sys::PUTW => self.output.extend_from_slice(&arg.to_le_bytes()),
                    other => return Err(Trap::BadSyscall { pc, number: other }),
                }
            }
        }
        self.pc = next;
        Ok(None)
    }

    /// Runs until exit or `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any architectural fault.
    pub fn run(mut self, max_steps: u64) -> Result<RunResult, Trap> {
        let mut executed = 0u64;
        while executed < max_steps {
            executed += 1;
            if let Some(code) = self.step()? {
                return Ok(RunResult {
                    stop: StopReason::Exited { code },
                    output: self.output,
                    instructions: executed,
                });
            }
        }
        Ok(RunResult {
            stop: StopReason::StepLimit,
            output: self.output,
            instructions: executed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> RunResult {
        let p = assemble(src).expect("assemble");
        ArchInterpreter::new(&p).run(1_000_000).expect("run")
    }

    fn run_trap(src: &str) -> Trap {
        let p = assemble(src).expect("assemble");
        ArchInterpreter::new(&p)
            .run(1_000_000)
            .expect_err("expected trap")
    }

    const EXIT0: &str = "li r2, 0\nli r3, 0\nsyscall\n";

    #[test]
    fn loop_sum_and_output() {
        let r = run(&format!(
            ".text\nmain:\nli r1, 10\nli r4, 0\nloop:\nadd r4, r4, r1\naddi r1, r1, -1\nbnez r1, loop\nli r2, 1\nmv r3, r4\nsyscall\n{EXIT0}"
        ));
        assert_eq!(r.stop, StopReason::Exited { code: 0 });
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn memory_and_stack() {
        let r = run(&format!(
            ".text\nmain:\naddi sp, sp, -8\nli r1, 0x1234\nsw r1, 4(sp)\nlw r3, 4(sp)\nli r2, 2\nsyscall\n{EXIT0}"
        ));
        assert_eq!(r.output, vec![0x34, 0x12, 0, 0]);
    }

    #[test]
    fn data_segment_roundtrip() {
        let r = run(&format!(
            ".text\nmain:\nla r5, v\nlw r3, 0(r5)\nli r2, 2\nsyscall\n{EXIT0}\n.data\nv: .word 0xCAFE\n"
        ));
        assert_eq!(r.output, vec![0xFE, 0xCA, 0, 0]);
    }

    #[test]
    fn function_call_via_jal() {
        let r = run(&format!(
            ".text\nmain:\nli r1, 20\njal double\nmv r3, r1\nli r2, 1\nsyscall\n{EXIT0}\ndouble:\nadd r1, r1, r1\njr ra\n"
        ));
        assert_eq!(r.output, vec![40]);
    }

    #[test]
    fn byte_and_half_memory_ops() {
        let r = run(&format!(
            ".text\nmain:\nla r5, b\nlb r3, 0(r5)\nli r2, 1\nsyscall\nlbu r3, 0(r5)\nsyscall\nlh r3, 2(r5)\nli r2, 2\nsyscall\n{EXIT0}\n.data\nb: .byte 0xFF, 0\n.half 0x8000\n"
        ));
        // lb sign-extends 0xFF -> output byte 0xFF; lbu -> 0xFF;
        // lh sign-extends 0x8000 -> 0xFFFF8000 as LE word.
        assert_eq!(r.output, vec![0xFF, 0xFF, 0x00, 0x80, 0xFF, 0xFF]);
    }

    #[test]
    fn segfault_on_unmapped() {
        match run_trap(".text\nmain:\nli r1, 0x2000\nlw r3, 0(r1)\n") {
            Trap::Segfault { addr, .. } => assert_eq!(addr, 0x2000),
            other => panic!("unexpected trap {other}"),
        }
    }

    #[test]
    fn misaligned_word_access() {
        match run_trap(".text\nmain:\nla r1, v\nlw r3, 1(r1)\n.data\nv: .word 1, 2\n") {
            Trap::Misaligned { .. } => {}
            other => panic!("unexpected trap {other}"),
        }
    }

    #[test]
    fn div_by_zero_traps() {
        match run_trap(".text\nmain:\nli r1, 3\nli r4, 0\ndiv r5, r1, r4\n") {
            Trap::DivisionByZero { .. } => {}
            other => panic!("unexpected trap {other}"),
        }
    }

    #[test]
    fn jr_to_garbage_faults() {
        match run_trap(".text\nmain:\nli r1, 0x0\njr r1\n") {
            Trap::Segfault { .. } => {}
            other => panic!("unexpected trap {other}"),
        }
    }

    #[test]
    fn step_limit_reported() {
        let p = assemble(".text\nmain:\nb main\n").unwrap();
        let r = ArchInterpreter::new(&p).run(100).unwrap();
        assert_eq!(r.stop, StopReason::StepLimit);
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn writes_to_r0_discarded() {
        let r = run(&format!(
            ".text\nmain:\nli r1, 7\nadd zero, r1, r1\nmv r3, zero\nli r2, 1\nsyscall\n{EXIT0}"
        ));
        assert_eq!(r.output, vec![0]);
    }
}
