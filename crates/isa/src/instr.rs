//! Instruction forms, binary encoding and decoding.
//!
//! Encoding layout (bit 31 is the most significant):
//!
//! | Format | \[31:24\] | \[23:20\] | \[19:16\] | \[15:12\] | \[15:0\] / \[23:0\] |
//! |--------|-----------|-----------|-----------|-----------|---------------------|
//! | R      | opcode    | rd        | rs        | rt        | bits \[11:0\] ignored |
//! | I      | opcode    | rd        | rs        | —         | imm16               |
//! | Branch | opcode    | rs        | rt        | —         | offset16 (signed, in instructions) |
//! | Store  | opcode    | rt (src)  | rs (base) | —         | offset16 (signed bytes) |
//! | J      | opcode    | target24 (word address) |||        |
//!
//! Unknown opcodes fail to decode ([`DecodeError::UndefinedOpcode`]); this is
//! the "illegal instruction" trap path taken when an instruction-cache bit
//! flip lands in the opcode field and produces an unassigned value.

use std::fmt;

/// An architectural register, `r0`–`r15`.
///
/// `r0` ("zero") is hardwired to zero: reads return 0 and writes are
/// discarded. By convention `r14` is the stack pointer (`sp`) and `r15` the
/// link register (`ra`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: Reg = Reg(0);
    /// The stack pointer alias, `r14`.
    pub const SP: Reg = Reg(14);
    /// The link register alias, `r15`.
    pub const RA: Reg = Reg(15);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn new(index: u8) -> Self {
        assert!(index < 16, "register index must be < 16");
        Reg(index)
    }

    /// The register index, 0–15.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired-zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "zero"),
            14 => write!(f, "sp"),
            15 => write!(f, "ra"),
            n => write!(f, "r{n}"),
        }
    }
}

/// Branch comparison condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `rs == rt`
    Eq,
    /// `rs != rt`
    Ne,
    /// `rs < rt` (signed)
    Lt,
    /// `rs >= rt` (signed)
    Ge,
    /// `rs < rt` (unsigned)
    Ltu,
    /// `rs >= rt` (unsigned)
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two register values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    Byte,
    /// Two bytes (halfword), address must be 2-aligned.
    Half,
    /// Four bytes (word), address must be 4-aligned.
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Two-operand ALU operation kind (register-register form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the unsigned 64-bit product.
    Mulhu,
    /// Signed division; division by zero traps.
    Div,
    /// Unsigned division; division by zero traps.
    Divu,
    /// Signed remainder; division by zero traps.
    Rem,
    /// Unsigned remainder; division by zero traps.
    Remu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Logical left shift by `rt & 31`.
    Sll,
    /// Logical right shift by `rt & 31`.
    Srl,
    /// Arithmetic right shift by `rt & 31`.
    Sra,
    /// Set-less-than, signed.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Applies the operation; `None` means an arithmetic trap (division by zero).
    pub fn apply(self, a: u32, b: u32) -> Option<u32> {
        Some(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    return None;
                }
                (a as i32).wrapping_div(b as i32) as u32
            }
            AluOp::Divu => {
                if b == 0 {
                    return None;
                }
                a / b
            }
            AluOp::Rem => {
                if b == 0 {
                    return None;
                }
                (a as i32).wrapping_rem(b as i32) as u32
            }
            AluOp::Remu => {
                if b == 0 {
                    return None;
                }
                a % b
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
        })
    }

    /// Execution latency in cycles on the modeled core.
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul | AluOp::Mulhu => 3,
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 12,
            _ => 1,
        }
    }
}

/// Immediate-operand ALU operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// Add sign-extended immediate.
    Addi,
    /// AND zero-extended immediate.
    Andi,
    /// OR zero-extended immediate.
    Ori,
    /// XOR zero-extended immediate.
    Xori,
    /// Set-less-than sign-extended immediate, signed compare.
    Slti,
    /// Set-less-than sign-extended immediate, unsigned compare.
    Sltiu,
    /// Logical left shift by `imm & 31`.
    Slli,
    /// Logical right shift by `imm & 31`.
    Srli,
    /// Arithmetic right shift by `imm & 31`.
    Srai,
}

impl AluImmOp {
    /// Applies the operation to a register value and the raw 16-bit immediate.
    pub fn apply(self, a: u32, imm: u16) -> u32 {
        let sext = imm as i16 as i32 as u32;
        let zext = imm as u32;
        match self {
            AluImmOp::Addi => a.wrapping_add(sext),
            AluImmOp::Andi => a & zext,
            AluImmOp::Ori => a | zext,
            AluImmOp::Xori => a ^ zext,
            AluImmOp::Slti => ((a as i32) < (sext as i32)) as u32,
            AluImmOp::Sltiu => (a < sext) as u32,
            AluImmOp::Slli => a.wrapping_shl(zext & 31),
            AluImmOp::Srli => a.wrapping_shr(zext & 31),
            AluImmOp::Srai => ((a as i32).wrapping_shr(zext & 31)) as u32,
        }
    }
}

/// A decoded instruction.
///
/// The enum is the single source of truth for instruction semantics metadata:
/// [`Instruction::dest`], [`Instruction::sources`], and the classification
/// predicates drive the rename/issue logic of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation (the all-zero encoding).
    Nop,
    /// Register-register ALU operation: `rd = op(rs, rt)`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs, imm)`.
    AluImm {
        op: AluImmOp,
        rd: Reg,
        rs: Reg,
        imm: u16,
    },
    /// Load upper immediate: `rd = imm << 16`.
    Lui { rd: Reg, imm: u16 },
    /// Load: `rd = mem[rs + offset]` with optional sign extension.
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs: Reg,
        offset: i16,
    },
    /// Store: `mem[rs + offset] = rt`.
    Store {
        width: MemWidth,
        rt: Reg,
        rs: Reg,
        offset: i16,
    },
    /// Conditional branch to `pc + 4 + offset*4`.
    Branch {
        cond: BranchCond,
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    /// Direct jump to word address `target` (byte address `target << 2`).
    J { target: u32 },
    /// Direct jump-and-link: `ra = pc + 4`, jump to `target << 2`.
    Jal { target: u32 },
    /// Indirect jump to the address in `rs`.
    Jr { rs: Reg },
    /// Indirect jump-and-link: `rd = pc + 4`, jump to address in `rs`.
    Jalr { rd: Reg, rs: Reg },
    /// System call; the system layer reads `r2` (number) and `r3` (argument).
    Syscall,
}

/// Error returned when a 32-bit word does not decode to a valid instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field holds an unassigned value.
    UndefinedOpcode(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UndefinedOpcode(op) => {
                write!(f, "undefined opcode 0x{op:02x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

mod opcodes {
    pub const NOP: u8 = 0x00;
    pub const J: u8 = 0x02;
    pub const JAL: u8 = 0x03;
    pub const BEQ: u8 = 0x04;
    pub const BNE: u8 = 0x05;
    pub const BLT: u8 = 0x06;
    pub const BGE: u8 = 0x07;
    pub const ADDI: u8 = 0x08;
    pub const SLTI: u8 = 0x0A;
    pub const SLTIU: u8 = 0x0B;
    pub const ANDI: u8 = 0x0C;
    pub const ORI: u8 = 0x0D;
    pub const XORI: u8 = 0x0E;
    pub const LUI: u8 = 0x0F;
    pub const SLL: u8 = 0x10;
    pub const SRL: u8 = 0x12;
    pub const SRA: u8 = 0x13;
    pub const MUL: u8 = 0x18;
    pub const MULHU: u8 = 0x19;
    pub const DIV: u8 = 0x1A;
    pub const DIVU: u8 = 0x1B;
    pub const REM: u8 = 0x1C;
    pub const REMU: u8 = 0x1D;
    pub const ADD: u8 = 0x20;
    pub const SUB: u8 = 0x22;
    pub const AND: u8 = 0x24;
    pub const OR: u8 = 0x25;
    pub const XOR: u8 = 0x26;
    pub const NOR: u8 = 0x27;
    pub const SLT: u8 = 0x2A;
    pub const SLTU: u8 = 0x2B;
    pub const BLTU: u8 = 0x44;
    pub const BGEU: u8 = 0x45;
    pub const JR: u8 = 0x48;
    pub const JALR: u8 = 0x49;
    pub const SLLI: u8 = 0x50;
    pub const SRLI: u8 = 0x52;
    pub const SRAI: u8 = 0x53;
    pub const LB: u8 = 0x80;
    pub const LH: u8 = 0x84;
    pub const LW: u8 = 0x8C;
    pub const LBU: u8 = 0x90;
    pub const LHU: u8 = 0x94;
    pub const SB: u8 = 0xA0;
    pub const SH: u8 = 0xA4;
    pub const SW: u8 = 0xAC;
    pub const SYSCALL: u8 = 0xFC;
}

fn r_type(op: u8, rd: Reg, rs: Reg, rt: Reg) -> u32 {
    ((op as u32) << 24)
        | ((rd.index() as u32) << 20)
        | ((rs.index() as u32) << 16)
        | ((rt.index() as u32) << 12)
}

fn i_type(op: u8, rd: Reg, rs: Reg, imm: u16) -> u32 {
    ((op as u32) << 24) | ((rd.index() as u32) << 20) | ((rs.index() as u32) << 16) | imm as u32
}

/// Encodes an instruction to its 32-bit binary form.
///
/// # Example
///
/// ```
/// use mbu_isa::{encode, decode, Instruction};
/// let word = encode(Instruction::Syscall);
/// assert_eq!(decode(word)?, Instruction::Syscall);
/// # Ok::<(), mbu_isa::DecodeError>(())
/// ```
pub fn encode(instr: Instruction) -> u32 {
    use opcodes::*;
    match instr {
        Instruction::Nop => 0,
        Instruction::Alu { op, rd, rs, rt } => {
            let opc = match op {
                AluOp::Add => ADD,
                AluOp::Sub => SUB,
                AluOp::Mul => MUL,
                AluOp::Mulhu => MULHU,
                AluOp::Div => DIV,
                AluOp::Divu => DIVU,
                AluOp::Rem => REM,
                AluOp::Remu => REMU,
                AluOp::And => AND,
                AluOp::Or => OR,
                AluOp::Xor => XOR,
                AluOp::Nor => NOR,
                AluOp::Sll => SLL,
                AluOp::Srl => SRL,
                AluOp::Sra => SRA,
                AluOp::Slt => SLT,
                AluOp::Sltu => SLTU,
            };
            r_type(opc, rd, rs, rt)
        }
        Instruction::AluImm { op, rd, rs, imm } => {
            let opc = match op {
                AluImmOp::Addi => ADDI,
                AluImmOp::Andi => ANDI,
                AluImmOp::Ori => ORI,
                AluImmOp::Xori => XORI,
                AluImmOp::Slti => SLTI,
                AluImmOp::Sltiu => SLTIU,
                AluImmOp::Slli => SLLI,
                AluImmOp::Srli => SRLI,
                AluImmOp::Srai => SRAI,
            };
            i_type(opc, rd, rs, imm)
        }
        Instruction::Lui { rd, imm } => i_type(LUI, rd, Reg::ZERO, imm),
        Instruction::Load {
            width,
            signed,
            rd,
            rs,
            offset,
        } => {
            let opc = match (width, signed) {
                (MemWidth::Byte, true) => LB,
                (MemWidth::Byte, false) => LBU,
                (MemWidth::Half, true) => LH,
                (MemWidth::Half, false) => LHU,
                (MemWidth::Word, _) => LW,
            };
            i_type(opc, rd, rs, offset as u16)
        }
        Instruction::Store {
            width,
            rt,
            rs,
            offset,
        } => {
            let opc = match width {
                MemWidth::Byte => SB,
                MemWidth::Half => SH,
                MemWidth::Word => SW,
            };
            i_type(opc, rt, rs, offset as u16)
        }
        Instruction::Branch {
            cond,
            rs,
            rt,
            offset,
        } => {
            let opc = match cond {
                BranchCond::Eq => BEQ,
                BranchCond::Ne => BNE,
                BranchCond::Lt => BLT,
                BranchCond::Ge => BGE,
                BranchCond::Ltu => BLTU,
                BranchCond::Geu => BGEU,
            };
            i_type(opc, rs, rt, offset as u16)
        }
        Instruction::J { target } => ((J as u32) << 24) | (target & 0x00FF_FFFF),
        Instruction::Jal { target } => ((JAL as u32) << 24) | (target & 0x00FF_FFFF),
        Instruction::Jr { rs } => r_type(JR, Reg::ZERO, rs, Reg::ZERO),
        Instruction::Jalr { rd, rs } => r_type(JALR, rd, rs, Reg::ZERO),
        Instruction::Syscall => (SYSCALL as u32) << 24,
    }
}

/// Decodes a 32-bit word into an instruction.
///
/// Bits that a format does not use are ignored, mirroring real ISAs where
/// "should-be-zero" fields are frequently not checked; this keeps the
/// silent-corruption path (a bit flip producing a *different valid*
/// instruction) realistically common.
///
/// # Errors
///
/// Returns [`DecodeError::UndefinedOpcode`] if the opcode byte holds an
/// unassigned value — the undefined-instruction trap path.
pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
    use opcodes::*;
    let op = (word >> 24) as u8;
    let rd = Reg::new(((word >> 20) & 0xF) as u8);
    let rs = Reg::new(((word >> 16) & 0xF) as u8);
    let rt = Reg::new(((word >> 12) & 0xF) as u8);
    let imm = (word & 0xFFFF) as u16;

    let alu = |o: AluOp| Instruction::Alu { op: o, rd, rs, rt };
    let alui = |o: AluImmOp| Instruction::AluImm { op: o, rd, rs, imm };
    let load = |w: MemWidth, s: bool| Instruction::Load {
        width: w,
        signed: s,
        rd,
        rs,
        offset: imm as i16,
    };
    let store = |w: MemWidth| Instruction::Store {
        width: w,
        rt: rd,
        rs,
        offset: imm as i16,
    };
    let branch = |c: BranchCond| Instruction::Branch {
        cond: c,
        rs: rd,
        rt: rs,
        offset: imm as i16,
    };

    Ok(match op {
        NOP => Instruction::Nop,
        ADD => alu(AluOp::Add),
        SUB => alu(AluOp::Sub),
        MUL => alu(AluOp::Mul),
        MULHU => alu(AluOp::Mulhu),
        DIV => alu(AluOp::Div),
        DIVU => alu(AluOp::Divu),
        REM => alu(AluOp::Rem),
        REMU => alu(AluOp::Remu),
        AND => alu(AluOp::And),
        OR => alu(AluOp::Or),
        XOR => alu(AluOp::Xor),
        NOR => alu(AluOp::Nor),
        SLL => alu(AluOp::Sll),
        SRL => alu(AluOp::Srl),
        SRA => alu(AluOp::Sra),
        SLT => alu(AluOp::Slt),
        SLTU => alu(AluOp::Sltu),
        ADDI => alui(AluImmOp::Addi),
        ANDI => alui(AluImmOp::Andi),
        ORI => alui(AluImmOp::Ori),
        XORI => alui(AluImmOp::Xori),
        SLTI => alui(AluImmOp::Slti),
        SLTIU => alui(AluImmOp::Sltiu),
        SLLI => alui(AluImmOp::Slli),
        SRLI => alui(AluImmOp::Srli),
        SRAI => alui(AluImmOp::Srai),
        LUI => Instruction::Lui { rd, imm },
        LB => load(MemWidth::Byte, true),
        LBU => load(MemWidth::Byte, false),
        LH => load(MemWidth::Half, true),
        LHU => load(MemWidth::Half, false),
        LW => load(MemWidth::Word, true),
        SB => store(MemWidth::Byte),
        SH => store(MemWidth::Half),
        SW => store(MemWidth::Word),
        BEQ => branch(BranchCond::Eq),
        BNE => branch(BranchCond::Ne),
        BLT => branch(BranchCond::Lt),
        BGE => branch(BranchCond::Ge),
        BLTU => branch(BranchCond::Ltu),
        BGEU => branch(BranchCond::Geu),
        J => Instruction::J {
            target: word & 0x00FF_FFFF,
        },
        JAL => Instruction::Jal {
            target: word & 0x00FF_FFFF,
        },
        JR => Instruction::Jr { rs },
        JALR => Instruction::Jalr { rd, rs },
        SYSCALL => Instruction::Syscall,
        other => return Err(DecodeError::UndefinedOpcode(other)),
    })
}

impl Instruction {
    /// The destination register written by this instruction, if any.
    ///
    /// Writes to `r0` are reported as `None` (they are architecturally
    /// discarded).
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Lui { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::Jalr { rd, .. } => rd,
            Instruction::Jal { .. } => Reg::RA,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The source registers read by this instruction, in operand order:
    /// at most two, filled from the front (`[None, None]` reads nothing).
    /// Reads of `r0` are retained — `r0` is always ready.
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match *self {
            Instruction::Alu { rs, rt, .. }
            | Instruction::Store { rt, rs, .. }
            | Instruction::Branch { rs, rt, .. } => [Some(rs), Some(rt)],
            Instruction::AluImm { rs, .. }
            | Instruction::Load { rs, .. }
            | Instruction::Jr { rs }
            | Instruction::Jalr { rs, .. } => [Some(rs), None],
            // The system layer reads r2/r3 architecturally at commit.
            Instruction::Syscall => [Some(Reg::new(2)), Some(Reg::new(3))],
            _ => [None, None],
        }
    }

    /// Whether the instruction redirects control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. }
                | Instruction::J { .. }
                | Instruction::Jal { .. }
                | Instruction::Jr { .. }
                | Instruction::Jalr { .. }
        )
    }

    /// Whether the control transfer target is known at decode time.
    pub fn is_direct_jump(&self) -> bool {
        matches!(self, Instruction::J { .. } | Instruction::Jal { .. })
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Instruction::Store { .. })
    }

    /// Execution latency in cycles (memory latency excluded for loads/stores).
    pub fn latency(&self) -> u32 {
        match self {
            Instruction::Alu { op, .. } => op.latency(),
            _ => 1,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Nop => write!(f, "nop"),
            Instruction::Alu { op, rd, rs, rt } => {
                write!(f, "{} {rd}, {rs}, {rt}", format!("{op:?}").to_lowercase())
            }
            Instruction::AluImm { op, rd, rs, imm } => {
                write!(
                    f,
                    "{} {rd}, {rs}, {}",
                    format!("{op:?}").to_lowercase(),
                    imm as i16
                )
            }
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, 0x{imm:x}"),
            Instruction::Load {
                width,
                signed,
                rd,
                rs,
                offset,
            } => {
                let m = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, _) => "lw",
                };
                write!(f, "{m} {rd}, {offset}({rs})")
            }
            Instruction::Store {
                width,
                rt,
                rs,
                offset,
            } => {
                let m = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{m} {rt}, {offset}({rs})")
            }
            Instruction::Branch {
                cond,
                rs,
                rt,
                offset,
            } => {
                let m = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{m} {rs}, {rt}, {offset}")
            }
            Instruction::J { target } => write!(f, "j 0x{:x}", target << 2),
            Instruction::Jal { target } => write!(f, "jal 0x{:x}", target << 2),
            Instruction::Jr { rs } => write!(f, "jr {rs}"),
            Instruction::Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Instruction::Syscall => write!(f, "syscall"),
        }
    }
}

pub use self::{AluImmOp as ImmOp, AluOp as RegOp};

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instructions() -> Vec<Instruction> {
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let r3 = Reg::new(3);
        let mut v = vec![
            Instruction::Nop,
            Instruction::Lui {
                rd: r1,
                imm: 0xBEEF,
            },
            Instruction::Load {
                width: MemWidth::Word,
                signed: true,
                rd: r1,
                rs: r2,
                offset: -8,
            },
            Instruction::Load {
                width: MemWidth::Byte,
                signed: false,
                rd: r1,
                rs: r2,
                offset: 127,
            },
            Instruction::Load {
                width: MemWidth::Half,
                signed: true,
                rd: r3,
                rs: r2,
                offset: 2,
            },
            Instruction::Store {
                width: MemWidth::Word,
                rt: r3,
                rs: r2,
                offset: 4,
            },
            Instruction::Store {
                width: MemWidth::Byte,
                rt: r3,
                rs: r2,
                offset: -1,
            },
            Instruction::Store {
                width: MemWidth::Half,
                rt: r3,
                rs: r2,
                offset: 6,
            },
            Instruction::J { target: 0x123456 },
            Instruction::Jal { target: 0x1 },
            Instruction::Jr { rs: r2 },
            Instruction::Jalr { rd: r1, rs: r2 },
            Instruction::Syscall,
        ];
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Mulhu,
            AluOp::Div,
            AluOp::Divu,
            AluOp::Rem,
            AluOp::Remu,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Nor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Slt,
            AluOp::Sltu,
        ] {
            v.push(Instruction::Alu {
                op,
                rd: r1,
                rs: r2,
                rt: r3,
            });
        }
        for op in [
            AluImmOp::Addi,
            AluImmOp::Andi,
            AluImmOp::Ori,
            AluImmOp::Xori,
            AluImmOp::Slti,
            AluImmOp::Sltiu,
            AluImmOp::Slli,
            AluImmOp::Srli,
            AluImmOp::Srai,
        ] {
            v.push(Instruction::AluImm {
                op,
                rd: r1,
                rs: r2,
                imm: 0x7FFF,
            });
        }
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            v.push(Instruction::Branch {
                cond,
                rs: r1,
                rt: r2,
                offset: -4,
            });
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip() {
        for instr in all_sample_instructions() {
            let word = encode(instr);
            assert_eq!(decode(word), Ok(instr), "roundtrip failed for {instr}");
        }
    }

    #[test]
    fn all_zero_word_is_nop() {
        assert_eq!(decode(0), Ok(Instruction::Nop));
    }

    #[test]
    fn undefined_opcode_errors() {
        // 0xFF is unassigned.
        assert_eq!(decode(0xFF00_0000), Err(DecodeError::UndefinedOpcode(0xFF)));
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(AluOp::Div.apply(5, 0), None);
        assert_eq!(AluOp::Divu.apply(5, 0), None);
        assert_eq!(AluOp::Rem.apply(5, 0), None);
        assert_eq!(AluOp::Remu.apply(5, 0), None);
    }

    #[test]
    fn signed_division_semantics() {
        assert_eq!(AluOp::Div.apply((-7i32) as u32, 2), Some((-3i32) as u32));
        assert_eq!(AluOp::Rem.apply((-7i32) as u32, 2), Some((-1i32) as u32));
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), Some(0xFFFF_FFFF));
    }

    #[test]
    fn dest_hides_writes_to_zero() {
        let i = Instruction::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::ZERO,
            rs: Reg::new(1),
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        assert_eq!(Instruction::Jal { target: 0 }.dest(), Some(Reg::RA));
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Lt.eval((-1i32) as u32, 0));
        assert!(!BranchCond::Ltu.eval((-1i32) as u32, 0));
        assert!(BranchCond::Geu.eval((-1i32) as u32, 0));
        assert!(BranchCond::Eq.eval(7, 7));
        assert!(BranchCond::Ne.eval(7, 8));
        assert!(BranchCond::Ge.eval(0, 0));
    }

    #[test]
    fn store_decode_maps_fields() {
        // sw r3, 4(r2): value register in rd slot, base in rs slot.
        let w = encode(Instruction::Store {
            width: MemWidth::Word,
            rt: Reg::new(3),
            rs: Reg::new(2),
            offset: 4,
        });
        match decode(w).unwrap() {
            Instruction::Store { rt, rs, offset, .. } => {
                assert_eq!(rt, Reg::new(3));
                assert_eq!(rs, Reg::new(2));
                assert_eq!(offset, 4);
            }
            other => panic!("expected store, got {other}"),
        }
    }
}

/// Disassembles a sequence of encoded words, one instruction per line, with
/// addresses starting at `base`. Undecodable words render as `.word`.
///
/// # Example
///
/// ```
/// use mbu_isa::{encode, Instruction};
/// let text = [encode(Instruction::Syscall), 0xFF00_0000];
/// let asm = mbu_isa::instr::disassemble(&text, 0x0040_0000);
/// assert!(asm.contains("syscall"));
/// assert!(asm.contains(".word 0xff000000"));
/// ```
pub fn disassemble(words: &[u32], base: u32) -> String {
    let mut out = String::new();
    for (i, &w) in words.iter().enumerate() {
        let addr = base + (i as u32) * 4;
        match decode(w) {
            Ok(instr) => out.push_str(&format!("{addr:08x}:  {instr}\n")),
            Err(_) => out.push_str(&format!("{addr:08x}:  .word 0x{w:08x}\n")),
        }
    }
    out
}

#[cfg(test)]
mod disasm_tests {
    use super::*;

    #[test]
    fn disassembles_mixed_stream() {
        let words = [
            encode(Instruction::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::new(1),
                rs: Reg::ZERO,
                imm: 5,
            }),
            encode(Instruction::Jal { target: 0x100 }),
            0xDEAD_BEEF,
        ];
        let s = disassemble(&words, 0x400000);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("addi r1, zero, 5"));
        assert!(s.contains("jal 0x400"));
        assert!(s.contains(".word 0xdeadbeef"));
        assert!(s.starts_with("00400000:"));
    }
}
