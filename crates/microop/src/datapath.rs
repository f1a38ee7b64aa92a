//! Datapath registers visible to microoperations.
//!
//! These are the special-purpose registers the paper's micro-ops read and
//! write. General-purpose registers, HI/LO and memories are architected
//! state owned by the pipeline; micro-ops reach them through the
//! [`crate::exec::MicroEnv`] callbacks instead.

use std::fmt;

use cimon_isa::codec::{CodecError, Dec, Enc};

/// A special-purpose datapath register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DReg {
    /// Current program counter (`CPC` in the paper).
    Cpc,
    /// Previous program counter (`PPC`): address of the instruction now in
    /// the decode stage. Together with `STA` it delimits the basic block.
    Ppc,
    /// Instruction register (`IReg`): the fetched instruction word.
    IReg,
    /// Start address of the basic block in execution (`STA`). Zero means
    /// "a new block starts at the next fetch" (paper, Section 4.3.1).
    Sta,
    /// Running hash of the block's instruction words (`RHASH`).
    Rhash,
}

impl DReg {
    /// All datapath registers.
    pub const ALL: [DReg; 5] = [DReg::Cpc, DReg::Ppc, DReg::IReg, DReg::Sta, DReg::Rhash];

    /// The paper's name for the register.
    pub fn name(self) -> &'static str {
        match self {
            DReg::Cpc => "CPC",
            DReg::Ppc => "PPC",
            DReg::IReg => "IReg",
            DReg::Sta => "STA",
            DReg::Rhash => "RHASH",
        }
    }
}

impl fmt::Display for DReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The register file of special-purpose datapath registers.
///
/// `RHASH` resets to the configurable `rhash_seed` rather than zero: the
/// paper (Section 6.3) suggests seeding the checksum with a
/// process-dependent random value to harden the plain XOR function.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Datapath {
    values: [u32; 5],
    /// Value `RHASH` takes on reset.
    pub rhash_seed: u32,
}

impl Datapath {
    /// A datapath with all registers zero and a zero hash seed.
    pub fn new() -> Datapath {
        Datapath::default()
    }

    /// A datapath whose `RHASH` resets to `seed` (and starts there).
    pub fn with_seed(seed: u32) -> Datapath {
        let mut dp = Datapath {
            values: [0; 5],
            rhash_seed: seed,
        };
        dp.reset(DReg::Rhash);
        dp
    }

    fn idx(reg: DReg) -> usize {
        match reg {
            DReg::Cpc => 0,
            DReg::Ppc => 1,
            DReg::IReg => 2,
            DReg::Sta => 3,
            DReg::Rhash => 4,
        }
    }

    /// Read a register.
    pub fn read(&self, reg: DReg) -> u32 {
        self.values[Self::idx(reg)]
    }

    /// Write a register.
    pub fn write(&mut self, reg: DReg, value: u32) {
        self.values[Self::idx(reg)] = value;
    }

    /// Reset a register to its architected reset value (zero, except
    /// `RHASH` which resets to [`Datapath::rhash_seed`]).
    pub fn reset(&mut self, reg: DReg) {
        let v = match reg {
            DReg::Rhash => self.rhash_seed,
            _ => 0,
        };
        self.write(reg, v);
    }

    /// Serialize every register plus the reset seed (checkpoint bytes).
    pub fn encode_into(&self, e: &mut Enc) {
        for v in self.values {
            e.u32(v);
        }
        e.u32(self.rhash_seed);
    }

    /// Rebuild a datapath serialized by [`Datapath::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the bytes are truncated.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Datapath, CodecError> {
        let mut values = [0u32; 5];
        for v in &mut values {
            *v = d.u32()?;
        }
        let rhash_seed = d.u32()?;
        Ok(Datapath { values, rhash_seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_each_register() {
        let mut dp = Datapath::new();
        for (i, r) in DReg::ALL.into_iter().enumerate() {
            dp.write(r, 100 + i as u32);
        }
        for (i, r) in DReg::ALL.into_iter().enumerate() {
            assert_eq!(dp.read(r), 100 + i as u32);
        }
    }

    #[test]
    fn reset_is_zero_except_seeded_rhash() {
        let mut dp = Datapath::with_seed(0xdead_beef);
        assert_eq!(dp.read(DReg::Rhash), 0xdead_beef);
        dp.write(DReg::Rhash, 1);
        dp.write(DReg::Sta, 2);
        dp.reset(DReg::Rhash);
        dp.reset(DReg::Sta);
        assert_eq!(dp.read(DReg::Rhash), 0xdead_beef);
        assert_eq!(dp.read(DReg::Sta), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut dp = Datapath::with_seed(0x5eed_cafe);
        for (i, r) in DReg::ALL.into_iter().enumerate() {
            dp.write(r, 0x1000 + i as u32);
        }
        let mut e = Enc::new();
        dp.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Datapath::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, dp);
        assert!(Datapath::decode_from(&mut Dec::new(&bytes[..7])).is_err());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DReg::Sta.to_string(), "STA");
        assert_eq!(DReg::Rhash.to_string(), "RHASH");
        assert_eq!(DReg::Ppc.to_string(), "PPC");
    }
}
