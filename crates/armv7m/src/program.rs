//! Program construction and assembly (label resolution, size accounting,
//! per-instruction provenance).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::error::SimError;
use crate::instr::{Instr, Target};
use crate::uop::DecodedProgram;

/// The provenance tag of an instruction whose origin was never declared
/// (see [`ProgramBuilder::set_origin`]).
pub const DEFAULT_ORIGIN: &str = "isel";

/// The provenance tag stamped on the second copy of an instruction emitted
/// by the builder's skip-hardening mode
/// ([`ProgramBuilder::set_duplicate_idempotent`]).
pub const SKIP_DUP_ORIGIN: &str = "skip-dup";

/// An assembled program: instructions with resolved branch targets plus the
/// label map, the code-size accounting derived from the Thumb-2 size model,
/// and a provenance tag per instruction.
///
/// The label map is an ordered [`BTreeMap`], so every way of walking a
/// program — instructions, labels, listings — is deterministic; two
/// assemblies of the same builder contents are byte-identical, which is what
/// lets artifact listings serve as golden test fixtures.
#[derive(Debug)]
pub struct Program {
    instrs: Vec<Instr>,
    labels: BTreeMap<String, usize>,
    sizes: Vec<u32>,
    label_of_instr: Vec<Option<String>>,
    origin_of_instr: Vec<&'static str>,
    /// The lazily decoded micro-op form ([`Program::decoded`]). Derived
    /// data: excluded from [`Clone`] and equality, never serialised, never
    /// part of an artifact fingerprint.
    decoded: OnceLock<DecodedProgram>,
}

impl Clone for Program {
    fn clone(&self) -> Self {
        // The decode cache is intentionally not cloned: a clone re-decodes
        // lazily if (and only if) it is ever executed. Programs are shared
        // via `Arc` on every hot path, so clones are cold-path copies.
        Program {
            instrs: self.instrs.clone(),
            labels: self.labels.clone(),
            sizes: self.sizes.clone(),
            label_of_instr: self.label_of_instr.clone(),
            origin_of_instr: self.origin_of_instr.clone(),
            decoded: OnceLock::new(),
        }
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the assembled content only — whether a decode
        // cache happens to be populated is an execution-history artifact.
        self.instrs == other.instrs
            && self.labels == other.labels
            && self.sizes == other.sizes
            && self.label_of_instr == other.label_of_instr
            && self.origin_of_instr == other.origin_of_instr
    }
}

impl Eq for Program {}

impl Program {
    /// The instructions of the program.
    #[must_use]
    pub fn instructions(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction index a label points at.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// All labels and their instruction indices, in lexicographic label
    /// order (a [`BTreeMap`], so iteration is deterministic).
    #[must_use]
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// Total code size in bytes (sum of the per-instruction Thumb-2 sizes).
    #[must_use]
    pub fn code_size_bytes(&self) -> u32 {
        self.sizes.iter().sum()
    }

    /// Code size of the instruction range `[start, end)` in bytes. Used to
    /// report per-function and per-snippet sizes (Tables II and III).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn code_size_of_range(&self, start: usize, end: usize) -> u32 {
        self.sizes[start..end].iter().sum()
    }

    /// Code size in bytes of the function starting at `label` and extending
    /// to the next label (or the end of the program).
    #[must_use]
    pub fn code_size_of_function(&self, label: &str) -> Option<u32> {
        let start = self.label(label)?;
        let end = self
            .labels
            .values()
            .copied()
            .filter(|&i| i > start)
            .min()
            .unwrap_or(self.instrs.len());
        Some(self.code_size_of_range(start, end))
    }

    /// The label placed exactly at instruction `index`, if any.
    #[must_use]
    pub fn label_at(&self, index: usize) -> Option<&str> {
        self.label_of_instr.get(index).and_then(|l| l.as_deref())
    }

    /// The provenance tag of the instruction at `index`: the origin the
    /// builder had declared when the instruction was pushed
    /// ([`DEFAULT_ORIGIN`] if none was, or the index is out of range).
    #[must_use]
    pub fn origin_at(&self, index: usize) -> &'static str {
        self.origin_of_instr
            .get(index)
            .copied()
            .unwrap_or(DEFAULT_ORIGIN)
    }

    /// The pre-decoded micro-op form of the program, decoded on first use
    /// and cached for the lifetime of the program (thread-safe — concurrent
    /// campaign workers sharing one `Arc<Program>` decode at most once).
    ///
    /// The decoded form is derived data: it never leaves the process, is
    /// never hashed into fingerprints, and does not participate in program
    /// equality or cloning.
    #[must_use]
    pub fn decoded(&self) -> &DecodedProgram {
        self.decoded.get_or_init(|| DecodedProgram::decode(self))
    }

    /// Decode-cost accounting: `(micro-ops, decode microseconds)` if this
    /// program has been decoded, `None` if the cache is still empty.
    /// Campaign statistics aggregate this over a matrix's artifacts.
    #[must_use]
    pub fn decode_cost(&self) -> Option<(u64, u64)> {
        self.decoded
            .get()
            .map(|d| (d.len() as u64, d.decode_micros()))
    }

    /// A plain-text listing of the program (label lines plus one instruction
    /// per line) for debugging and golden tests.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            if let Some(label) = self.label_at(i) {
                out.push_str(label);
                out.push_str(":\n");
            }
            out.push_str(&format!("  {:4}  {}\n", i, instr));
        }
        out
    }

    /// An annotated, byte-stable listing: per instruction the index, the
    /// byte offset in the Thumb-2 size model, the rendered instruction and
    /// its provenance tag, with label lines interleaved.
    ///
    /// Because every ingredient is deterministic (instructions and label
    /// attachment come from the builder in push order, offsets from the size
    /// model, origins from [`ProgramBuilder::set_origin`]), two builds of
    /// the same program render the identical string — the property golden
    /// snapshot tests and cross-session artifact comparisons rely on.
    #[must_use]
    pub fn annotated_listing(&self) -> String {
        let mut out = String::new();
        let mut offset = 0u32;
        for (i, instr) in self.instrs.iter().enumerate() {
            if let Some(label) = self.label_at(i) {
                out.push_str(label);
                out.push_str(":\n");
            }
            out.push_str(&format!(
                "  {:4}  {:#06x}  {:<24}; {}\n",
                i,
                offset,
                instr.to_string(),
                self.origin_at(i),
            ));
            offset += self.sizes[i];
        }
        out
    }
}

/// Builder collecting labels and instructions before assembly.
///
/// The builder carries a *current origin* tag ([`ProgramBuilder::set_origin`],
/// initially [`DEFAULT_ORIGIN`]); every pushed instruction is stamped with
/// it, and the tags survive assembly as [`Program::origin_at`]. The back end
/// uses this to attribute each machine instruction to the pipeline layer
/// that required it (plain instruction selection, the AN Coder's encoded
/// comparison, CFI instrumentation, …).
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    items: Vec<Item>,
    origin: &'static str,
    duplicate: bool,
}

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Instr(Instr, &'static str),
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder {
            items: Vec::new(),
            origin: DEFAULT_ORIGIN,
            duplicate: false,
        }
    }
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: impl Into<String>) {
        self.items.push(Item::Label(name.into()));
    }

    /// Declares the provenance tag stamped on subsequently pushed
    /// instructions (until the next call). Tags are `'static` strings by
    /// design: they name fixed pipeline layers, not per-build data.
    pub fn set_origin(&mut self, origin: &'static str) {
        self.origin = origin;
    }

    /// The currently declared provenance tag.
    #[must_use]
    pub fn origin(&self) -> &'static str {
        self.origin
    }

    /// Enables or disables skip-hardening duplication: while enabled, every
    /// pushed instruction for which [`Instr::is_idempotent`] holds is
    /// emitted *twice* (the duplicate stamped [`SKIP_DUP_ORIGIN`]), so a
    /// single instruction-skip fault on either copy is masked by the other.
    /// Non-idempotent instructions (calls, push/pop, accumulating ALU ops)
    /// are emitted once as usual. Labels are unaffected — they still
    /// resolve to the first copy.
    pub fn set_duplicate_idempotent(&mut self, enabled: bool) {
        self.duplicate = enabled;
    }

    /// Whether skip-hardening duplication is currently enabled.
    #[must_use]
    pub fn duplicate_idempotent(&self) -> bool {
        self.duplicate
    }

    /// Appends an instruction (stamped with the current origin). Under
    /// [`ProgramBuilder::set_duplicate_idempotent`], idempotent
    /// instructions are appended twice.
    pub fn push(&mut self, instr: Instr) {
        if self.duplicate && instr.is_idempotent() {
            self.items.push(Item::Instr(instr.clone(), self.origin));
            self.items.push(Item::Instr(instr, SKIP_DUP_ORIGIN));
        } else {
            self.items.push(Item::Instr(instr, self.origin));
        }
    }

    /// Appends all instructions of an iterator (each stamped with the
    /// current origin).
    pub fn extend(&mut self, instrs: impl IntoIterator<Item = Instr>) {
        for i in instrs {
            self.push(i);
        }
    }

    /// Number of instructions appended so far.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Instr(..)))
            .count()
    }

    /// Resolves labels and produces an executable [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateLabel`] or [`SimError::UndefinedLabel`].
    pub fn assemble(self) -> Result<Program, SimError> {
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        let mut instrs: Vec<Instr> = Vec::new();
        let mut label_of_instr: Vec<Option<String>> = Vec::new();
        let mut origin_of_instr: Vec<&'static str> = Vec::new();
        let mut pending_labels: Vec<String> = Vec::new();
        for item in self.items {
            match item {
                Item::Label(name) => {
                    if labels.contains_key(&name) {
                        return Err(SimError::DuplicateLabel { label: name });
                    }
                    labels.insert(name.clone(), instrs.len());
                    pending_labels.push(name);
                }
                Item::Instr(i, origin) => {
                    instrs.push(i);
                    label_of_instr.push(pending_labels.first().cloned());
                    origin_of_instr.push(origin);
                    pending_labels.clear();
                }
            }
        }
        // Labels at the very end of the program point one past the last
        // instruction; that is allowed (e.g. an `end` marker) but they cannot
        // be attached to an instruction.

        for instr in &mut instrs {
            if let Some(target) = instr.target_mut() {
                if let Target::Label(name) = target {
                    let Some(&index) = labels.get(name.as_str()) else {
                        return Err(SimError::UndefinedLabel {
                            label: name.clone(),
                        });
                    };
                    *target = Target::Resolved(index);
                }
            }
        }

        let sizes = instrs.iter().map(Instr::size_bytes).collect();
        Ok(Program {
            instrs,
            labels,
            sizes,
            label_of_instr,
            origin_of_instr,
            decoded: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cond, Operand2, Reg};

    fn sample_builder() -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.label("start");
        p.push(Instr::MovImm {
            rd: Reg::R0,
            imm: 0,
        });
        p.label("loop");
        p.push(Instr::Add {
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Imm(1),
        });
        p.push(Instr::Cmp {
            rn: Reg::R0,
            op2: Operand2::Imm(10),
        });
        p.push(Instr::BCond {
            cond: Cond::Lo,
            target: Target::label("loop"),
        });
        p.push(Instr::Bx { rm: Reg::Lr });
        p
    }

    #[test]
    fn assembly_resolves_labels() {
        let program = sample_builder().assemble().expect("assembles");
        assert_eq!(program.len(), 5);
        assert_eq!(program.label("start"), Some(0));
        assert_eq!(program.label("loop"), Some(1));
        assert_eq!(program.label("missing"), None);
        let branch = &program.instructions()[3];
        assert_eq!(branch.target().and_then(Target::index), Some(1));
        assert_eq!(program.label_at(0), Some("start"));
        assert_eq!(program.label_at(1), Some("loop"));
        assert_eq!(program.label_at(2), None);
    }

    #[test]
    fn code_size_accounting() {
        let program = sample_builder().assemble().expect("assembles");
        // mov#0 (2) + add#1 (2) + cmp#10 (2) + blo (2) + bx (2) = 10 bytes.
        assert_eq!(program.code_size_bytes(), 10);
        assert_eq!(program.code_size_of_range(0, 1), 2);
        assert_eq!(
            program.code_size_of_function("start"),
            Some(2),
            "'start' extends to the next label 'loop'"
        );
        assert_eq!(program.code_size_of_function("loop"), Some(8));
    }

    #[test]
    fn duplicate_and_undefined_labels_are_rejected() {
        let mut p = ProgramBuilder::new();
        p.label("x");
        p.push(Instr::Nop);
        p.label("x");
        assert!(matches!(p.assemble(), Err(SimError::DuplicateLabel { .. })));

        let mut p = ProgramBuilder::new();
        p.push(Instr::B {
            target: Target::label("nowhere"),
        });
        assert!(matches!(p.assemble(), Err(SimError::UndefinedLabel { .. })));
    }

    #[test]
    fn listing_contains_labels_and_instructions() {
        let program = sample_builder().assemble().expect("assembles");
        let listing = program.listing();
        assert!(listing.contains("start:"));
        assert!(listing.contains("loop:"));
        assert!(listing.contains("blo"));
    }

    #[test]
    fn origins_are_stamped_and_survive_assembly() {
        let mut p = ProgramBuilder::new();
        p.label("f");
        p.push(Instr::Nop); // default origin
        p.set_origin("cfi");
        p.push(Instr::Nop);
        p.push(Instr::Nop);
        p.set_origin("body");
        p.push(Instr::Bx { rm: Reg::Lr });
        assert_eq!(p.origin(), "body");
        let program = p.assemble().expect("assembles");
        assert_eq!(program.origin_at(0), DEFAULT_ORIGIN);
        assert_eq!(program.origin_at(1), "cfi");
        assert_eq!(program.origin_at(2), "cfi");
        assert_eq!(program.origin_at(3), "body");
        assert_eq!(program.origin_at(99), DEFAULT_ORIGIN, "out of range");
    }

    #[test]
    fn annotated_listing_shows_offsets_labels_and_origins() {
        let mut p = sample_builder();
        p.set_origin("tail");
        p.push(Instr::Nop);
        let program = p.assemble().expect("assembles");
        let listing = program.annotated_listing();
        assert!(listing.contains("start:"));
        assert!(listing.contains("loop:"));
        assert!(listing.contains("; isel"));
        assert!(listing.contains("; tail"));
        // Byte offsets follow the size model: instruction 1 starts at 0x2.
        assert!(listing.contains("0x0002"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(listing, program.annotated_listing());
    }

    #[test]
    fn empty_program_is_valid() {
        let program = ProgramBuilder::new().assemble().expect("assembles");
        assert!(program.is_empty());
        assert_eq!(program.code_size_bytes(), 0);
    }

    #[test]
    fn extend_appends_instructions() {
        let mut p = ProgramBuilder::new();
        p.extend([Instr::Nop, Instr::Nop, Instr::Bx { rm: Reg::Lr }]);
        assert_eq!(p.instr_count(), 3);
    }

    #[test]
    fn duplicate_mode_doubles_idempotent_instructions_only() {
        let mut p = ProgramBuilder::new();
        p.label("f");
        p.set_duplicate_idempotent(true);
        assert!(p.duplicate_idempotent());
        p.push(Instr::MovImm {
            rd: Reg::R0,
            imm: 7,
        }); // idempotent: duplicated
        p.push(Instr::Add {
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Imm(1),
        }); // accumulating: single
        p.set_duplicate_idempotent(false);
        p.push(Instr::MovImm {
            rd: Reg::R1,
            imm: 9,
        }); // mode off: single
        p.push(Instr::Bx { rm: Reg::Lr });
        let program = p.assemble().expect("assembles");
        assert_eq!(program.len(), 5);
        // The label still resolves to the first copy.
        assert_eq!(program.label("f"), Some(0));
        assert_eq!(
            program.instructions()[0],
            Instr::MovImm {
                rd: Reg::R0,
                imm: 7
            }
        );
        assert_eq!(program.instructions()[0], program.instructions()[1]);
        // The duplicate carries the dedicated provenance tag; the original
        // keeps the builder's declared origin.
        assert_eq!(program.origin_at(0), DEFAULT_ORIGIN);
        assert_eq!(program.origin_at(1), SKIP_DUP_ORIGIN);
        assert_eq!(program.origin_at(2), DEFAULT_ORIGIN);
        assert_eq!(
            program.instructions()[2],
            Instr::Add {
                rd: Reg::R0,
                rn: Reg::R0,
                op2: Operand2::Imm(1)
            }
        );
    }
}
