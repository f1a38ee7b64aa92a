//! Processor specifications and the monitor-embedding design step.
//!
//! This is the paper's Section 5 rendered as an API. A
//! [`ProcessorSpec`] plays the role of the ASIP Meister "architecture
//! design entry": a set of datapath **resources** selected from a library
//! plus the micro-op **programs** attached to pipeline stages.
//! [`embed_monitor`] is the design step that redefines the ISA: it
//! appends the monitoring micro-operations of Figures 3–4 and pulls the
//! checker hardware (STA, RHASH, HASHFU, IHT, comparator) into the
//! resource set. Downstream, `cimon-pipeline` executes the spec and
//! `cimon-area` prices its resources.

use std::fmt;

use crate::datapath::DReg;
use crate::exec::ExceptionKind;
use crate::ops::{Guard, MicroOp, MicroProgram, Wire};

/// Hash algorithms the `HASHFU` resource can be instantiated with.
///
/// The paper's experiments use the plain XOR checksum; the others
/// implement its "more secure yet efficient hash algorithms" future-work
/// axis and are priced differently by the area model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashAlgoKind {
    /// Word-wise XOR checksum (the paper's choice).
    Xor,
    /// XOR seeded with a process-dependent random value (Section 6.3).
    SeededXor,
    /// Fletcher-32 style two-word running checksum.
    Fletcher32,
    /// Bit-serial CRC-32 (IEEE polynomial), one word per cycle.
    Crc32,
    /// SHA-1 (for comparison; far larger and slower than the pipeline).
    Sha1,
}

impl HashAlgoKind {
    /// All supported kinds.
    pub const ALL: [HashAlgoKind; 5] = [
        HashAlgoKind::Xor,
        HashAlgoKind::SeededXor,
        HashAlgoKind::Fletcher32,
        HashAlgoKind::Crc32,
        HashAlgoKind::Sha1,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            HashAlgoKind::Xor => "xor",
            HashAlgoKind::SeededXor => "seeded-xor",
            HashAlgoKind::Fletcher32 => "fletcher32",
            HashAlgoKind::Crc32 => "crc32",
            HashAlgoKind::Sha1 => "sha1",
        }
    }
}

impl fmt::Display for HashAlgoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A datapath component from the resource library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// 32×32-bit general-purpose register file.
    GprFile,
    /// Main ALU.
    Alu,
    /// HI/LO multiply-divide unit.
    MulDiv,
    /// Current-PC register.
    CpcReg,
    /// Previous-PC register.
    PpcReg,
    /// Instruction register.
    IReg,
    /// Instruction memory access unit (fetch port).
    IMau,
    /// Data memory access unit.
    DMau,
    /// Pipeline control logic.
    Control,
    /// Block start-address register (monitoring).
    StaReg,
    /// Running-hash register (monitoring).
    RhashReg,
    /// Hash functional unit (monitoring).
    HashFu(HashAlgoKind),
    /// Internal hash table with this many entries (monitoring).
    Iht {
        /// Number of `(Addst, Addend, Hash)` entries.
        entries: usize,
    },
    /// Hash/tag comparator (monitoring).
    Comparator,
}

impl Resource {
    /// Whether this resource exists only for the integrity monitor.
    pub fn is_monitoring(&self) -> bool {
        matches!(
            self,
            Resource::StaReg
                | Resource::RhashReg
                | Resource::HashFu(_)
                | Resource::Iht { .. }
                | Resource::Comparator
        )
    }
}

/// Parameters of the monitoring extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorParams {
    /// Number of IHT entries (the paper evaluates 1, 8, 16, 32).
    pub iht_entries: usize,
    /// Hash algorithm instantiated in `HASHFU`.
    pub hash_algo: HashAlgoKind,
}

impl Default for MonitorParams {
    /// The paper's headline configuration: 8 entries, XOR checksum.
    fn default() -> Self {
        MonitorParams {
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
        }
    }
}

/// Specification error found by [`ProcessorSpec::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A stage program reads a wire that is never driven.
    UndrivenWire {
        /// Program name.
        program: String,
        /// The floating wire.
        wire: String,
    },
    /// A micro-op needs a resource the spec does not include.
    MissingResource {
        /// Program name.
        program: String,
        /// Description of the missing resource.
        resource: String,
    },
    /// The IHT has a nonsensical size.
    BadIhtSize(usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UndrivenWire { program, wire } => {
                write!(f, "program `{program}` reads undriven wire `{wire}`")
            }
            SpecError::MissingResource { program, resource } => {
                write!(
                    f,
                    "program `{program}` requires missing resource {resource}"
                )
            }
            SpecError::BadIhtSize(n) => write!(f, "invalid IHT size {n}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete processor specification.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessorSpec {
    /// Human-readable name, e.g. `"pisa6-baseline"`.
    pub name: String,
    /// Selected datapath resources.
    pub resources: Vec<Resource>,
    /// Micro-program executed in IF for **every** instruction.
    pub if_program: MicroProgram,
    /// Monitoring micro-program executed in ID for **control-flow**
    /// instructions (block-end check, Figure 4). `None` on the baseline.
    pub id_check_program: Option<MicroProgram>,
    /// Monitoring parameters, when the monitor is embedded.
    pub monitor: Option<MonitorParams>,
}

impl ProcessorSpec {
    /// Whether the integrity monitor is embedded.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The configured IHT size, if monitored.
    pub fn iht_entries(&self) -> Option<usize> {
        self.monitor.map(|m| m.iht_entries)
    }

    /// Statically check the spec: no floating wires, and every functional
    /// unit referenced by a micro-op is present in the resource list.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        let has_hash_fu = self
            .resources
            .iter()
            .any(|r| matches!(r, Resource::HashFu(_)));
        let has_checker = self
            .resources
            .iter()
            .any(|r| matches!(r, Resource::Iht { .. }))
            && self.resources.contains(&Resource::Comparator);
        for p in std::iter::once(&self.if_program).chain(&self.id_check_program) {
            if let Some(w) = p.free_wires().first() {
                return Err(SpecError::UndrivenWire {
                    program: p.name.clone(),
                    wire: w.0.to_string(),
                });
            }
            for op in &p.ops {
                // The description of a missing resource, formatted only
                // when one is missing.
                let missing: Option<String> = match op {
                    MicroOp::Read { reg, .. }
                    | MicroOp::Write { reg, .. }
                    | MicroOp::Reset { reg } => {
                        let res = reg_resource(*reg);
                        (!self.resources.contains(&res)).then(|| format!("{res:?}"))
                    }
                    MicroOp::FetchIMem { .. } => {
                        (!self.resources.contains(&Resource::IMau)).then(|| "IMau".to_string())
                    }
                    MicroOp::HashOp { .. } => (!has_hash_fu).then(|| "HashFu".to_string()),
                    MicroOp::IhtLookup { .. } => {
                        (!has_checker).then(|| "Iht + Comparator".to_string())
                    }
                    MicroOp::IncPc => {
                        (!self.resources.contains(&Resource::CpcReg)).then(|| "CpcReg".to_string())
                    }
                    MicroOp::AndNot { .. } | MicroOp::RaiseException { .. } => None,
                };
                if let Some(resource) = missing {
                    return Err(SpecError::MissingResource {
                        program: p.name.clone(),
                        resource,
                    });
                }
            }
        }
        if let Some(m) = &self.monitor {
            if m.iht_entries == 0 || m.iht_entries > 4096 {
                return Err(SpecError::BadIhtSize(m.iht_entries));
            }
        }
        Ok(())
    }

    /// The monitoring-only resources (empty on a baseline spec).
    pub fn monitoring_resources(&self) -> Vec<Resource> {
        self.resources
            .iter()
            .copied()
            .filter(Resource::is_monitoring)
            .collect()
    }
}

fn reg_resource(reg: DReg) -> Resource {
    match reg {
        DReg::Cpc => Resource::CpcReg,
        DReg::Ppc => Resource::PpcReg,
        DReg::IReg => Resource::IReg,
        DReg::Sta => Resource::StaReg,
        DReg::Rhash => Resource::RhashReg,
    }
}

/// The baseline single-issue PISA processor spec with the Figure-1 IF
/// micro-program and no monitoring hardware.
pub fn baseline_spec() -> ProcessorSpec {
    let mut if_program = MicroProgram::new("IF (all instructions)");
    if_program
        .push(MicroOp::Read {
            reg: DReg::Cpc,
            out: Wire("current_pc"),
        })
        .push(MicroOp::FetchIMem {
            addr: Wire("current_pc"),
            out: Wire("instr"),
        })
        .push(MicroOp::Write {
            reg: DReg::IReg,
            input: Wire("instr"),
            guard: None,
        })
        .push(MicroOp::Write {
            reg: DReg::Ppc,
            input: Wire("current_pc"),
            guard: None,
        })
        .push(MicroOp::IncPc);

    ProcessorSpec {
        name: "pisa6-baseline".to_string(),
        resources: vec![
            Resource::GprFile,
            Resource::Alu,
            Resource::MulDiv,
            Resource::CpcReg,
            Resource::PpcReg,
            Resource::IReg,
            Resource::IMau,
            Resource::DMau,
            Resource::Control,
        ],
        if_program,
        id_check_program: None,
        monitor: None,
    }
}

/// The monitor-embedding design step (paper, Section 5 and Figures 3–4):
/// append the hash-computation micro-ops to the IF stage of every
/// instruction, attach the block-end check to the ID stage of
/// control-flow instructions, and select the monitoring resources.
///
/// The input spec is not modified; ASIPs are generated, never patched.
pub fn embed_monitor(base: &ProcessorSpec, params: &MonitorParams) -> ProcessorSpec {
    let mut spec = base.clone();
    spec.name = format!("{}+cic{}", base.name, params.iht_entries);
    spec.monitor = Some(*params);

    // Figure 3(b): extra IF micro-ops, italicised lines.
    spec.if_program.name = "IF (all instructions, monitored)".to_string();
    spec.if_program
        .push(MicroOp::Read {
            reg: DReg::Sta,
            out: Wire("start"),
        })
        .push(MicroOp::Write {
            reg: DReg::Sta,
            input: Wire("current_pc"),
            guard: Some(Guard::eq_zero(Wire("start"))),
        })
        .push(MicroOp::Read {
            reg: DReg::Rhash,
            out: Wire("ohashv"),
        })
        .push(MicroOp::HashOp {
            old: Wire("ohashv"),
            instr: Wire("instr"),
            out: Wire("nhashv"),
        })
        .push(MicroOp::Write {
            reg: DReg::Rhash,
            input: Wire("nhashv"),
            guard: None,
        });

    // Figure 4: block-end check in ID of control-flow instructions.
    let mut check = MicroProgram::new("ID (flow-control instructions, monitored)");
    check
        .push(MicroOp::Read {
            reg: DReg::Sta,
            out: Wire("start"),
        })
        .push(MicroOp::Read {
            reg: DReg::Ppc,
            out: Wire("end"),
        })
        .push(MicroOp::Read {
            reg: DReg::Rhash,
            out: Wire("hashv"),
        })
        .push(MicroOp::IhtLookup {
            start: Wire("start"),
            end: Wire("end"),
            hash: Wire("hashv"),
            found: Wire("found"),
            matched: Wire("match"),
        })
        .push(MicroOp::RaiseException {
            kind: ExceptionKind::HashMiss,
            guard: Guard::eq_zero(Wire("found")),
        })
        .push(MicroOp::AndNot {
            a: Wire("found"),
            b: Wire("match"),
            out: Wire("mismatch"),
        })
        .push(MicroOp::RaiseException {
            kind: ExceptionKind::HashMismatch,
            guard: Guard::ne_zero(Wire("mismatch")),
        })
        .push(MicroOp::Reset { reg: DReg::Sta })
        .push(MicroOp::Reset { reg: DReg::Rhash });
    spec.id_check_program = Some(check);

    spec.resources.extend([
        Resource::StaReg,
        Resource::RhashReg,
        Resource::HashFu(params.hash_algo),
        Resource::Iht {
            entries: params.iht_entries,
        },
        Resource::Comparator,
    ]);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid_and_unmonitored() {
        let spec = baseline_spec();
        spec.validate().unwrap();
        assert!(!spec.is_monitored());
        assert!(spec.monitoring_resources().is_empty());
        assert_eq!(spec.iht_entries(), None);
        // Figure 1's shape: read, fetch, latch, (ppc), inc.
        assert_eq!(spec.if_program.len(), 5);
    }

    #[test]
    fn embed_monitor_adds_ops_and_resources() {
        let base = baseline_spec();
        let spec = embed_monitor(&base, &MonitorParams::default());
        spec.validate().unwrap();
        assert!(spec.is_monitored());
        assert_eq!(spec.iht_entries(), Some(8));
        assert_eq!(spec.if_program.len(), base.if_program.len() + 5);
        let check = spec.id_check_program.as_ref().unwrap();
        assert_eq!(check.len(), 9);
        assert_eq!(spec.monitoring_resources().len(), 5);
        assert!(spec.name.contains("cic8"));
    }

    #[test]
    fn embedding_leaves_base_untouched() {
        let base = baseline_spec();
        let before = base.clone();
        let _ = embed_monitor(&base, &MonitorParams::default());
        assert_eq!(base, before);
    }

    #[test]
    fn validate_catches_missing_resource() {
        let mut spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        spec.resources.retain(|r| !matches!(r, Resource::HashFu(_)));
        match spec.validate().unwrap_err() {
            SpecError::MissingResource { resource, .. } => assert!(resource.contains("HashFu")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_resource_messages_are_exact() {
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        let without = |drop: fn(&Resource) -> bool| {
            let mut s = spec.clone();
            s.resources.retain(|r| !drop(r));
            s.validate().unwrap_err()
        };
        let err = without(|r| matches!(r, Resource::HashFu(_)));
        assert_eq!(
            err,
            SpecError::MissingResource {
                program: "IF (all instructions, monitored)".to_string(),
                resource: "HashFu".to_string(),
            }
        );
        assert_eq!(
            err.to_string(),
            "program `IF (all instructions, monitored)` requires missing resource HashFu"
        );
        assert_eq!(
            without(|r| *r == Resource::StaReg).to_string(),
            "program `IF (all instructions, monitored)` requires missing resource StaReg"
        );
        assert_eq!(
            without(|r| *r == Resource::Comparator).to_string(),
            "program `ID (flow-control instructions, monitored)` requires missing resource \
             Iht + Comparator"
        );
    }

    #[test]
    fn stage_programs_do_not_depend_on_monitor_params() {
        // Processors lower the monitored stage programs once and share
        // them across every parameter set: a program that came to
        // depend on the parameters must fail here.
        let base = baseline_spec();
        let reference = embed_monitor(&base, &MonitorParams::default());
        for hash_algo in HashAlgoKind::ALL {
            for iht_entries in [1, 8, 4096] {
                let params = MonitorParams {
                    iht_entries,
                    hash_algo,
                };
                let spec = embed_monitor(&base, &params);
                spec.validate().unwrap();
                assert_eq!(spec.if_program, reference.if_program, "{params:?}");
                assert_eq!(
                    spec.id_check_program, reference.id_check_program,
                    "{params:?}"
                );
            }
        }
    }

    #[test]
    fn validate_catches_floating_wire() {
        let mut spec = baseline_spec();
        spec.if_program.push(MicroOp::Write {
            reg: DReg::IReg,
            input: Wire("phantom"),
            guard: None,
        });
        match spec.validate().unwrap_err() {
            SpecError::UndrivenWire { wire, .. } => assert_eq!(wire, "phantom"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn validate_catches_bad_iht_size() {
        let mut spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        spec.monitor = Some(MonitorParams {
            iht_entries: 0,
            ..MonitorParams::default()
        });
        assert_eq!(spec.validate().unwrap_err(), SpecError::BadIhtSize(0));
    }

    #[test]
    fn printed_if_program_matches_figure_3b() {
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        let text = spec.if_program.to_string();
        for expected in [
            "current_pc = CPC.read();",
            "instr = IMAU.read(current_pc);",
            "null = IReg.write(instr);",
            "null = CPC.inc();",
            "start = STA.read();",
            "null = [start==0]STA.write(current_pc);",
            "ohashv = RHASH.read();",
            "nhashv = HASHFU.ope(ohashv, instr);",
            "null = RHASH.write(nhashv);",
        ] {
            assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
        }
    }

    #[test]
    fn printed_id_program_matches_figure_4() {
        let spec = embed_monitor(&baseline_spec(), &MonitorParams::default());
        let text = spec.id_check_program.as_ref().unwrap().to_string();
        for expected in [
            "start = STA.read();",
            "end = PPC.read();",
            "hashv = RHASH.read();",
            "<found,match> = IHTbb.lookup(<start,end,hashv>);",
            "exception0 = [found==0]'1';",
            "exception1 = [mismatch!=0]'1';",
            "null = STA.reset();",
            "null = RHASH.reset();",
        ] {
            assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
        }
    }

    #[test]
    fn hash_algo_names() {
        for k in HashAlgoKind::ALL {
            assert!(!k.name().is_empty());
        }
        assert_eq!(HashAlgoKind::Xor.to_string(), "xor");
    }
}
