//! The [`Provenance`] record: the auditable identity of one compiled
//! artifact.
//!
//! The paper's countermeasure claims rest on being able to point at a
//! concrete compiled artifact and say *exactly* which source, which
//! transformation sequence and which back-end configuration produced it.
//! Because compilation is bit-deterministic (see `secbranch-codegen`), the
//! record below fully determines the artifact bytes: anyone replaying the
//! same module through the same pipeline reproduces the identical program,
//! listing and fingerprint, in a different process or on a different day.

use std::fmt;

/// How one [`crate::Artifact`] came to be: the source module's content hash,
/// the pipeline configuration fingerprint, the middle-end pass sequence and
/// the combined artifact fingerprint the trace store keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Hash of the source module's printed IR (16 lowercase hex digits),
    /// taken *before* any pass ran.
    pub module_hash: String,
    /// The building pipeline's configuration fingerprint
    /// ([`crate::Pipeline::fingerprint`]): CFI level, middle-end components
    /// with their full configuration, simulator settings.
    pub pipeline_fingerprint: String,
    /// The artifact fingerprint ([`crate::Artifact::artifact_fingerprint`]):
    /// pipeline fingerprint qualified by the module hash — the identity
    /// reference traces are memoised under.
    pub artifact_fingerprint: String,
    /// The middle-end passes that ran, in execution order.
    pub passes: Vec<String>,
}

secbranch_obs::impl_to_json! { Provenance |p|
    module_hash, pipeline_fingerprint, artifact_fingerprint, passes,
}

/// Renders the record as the `;`-prefixed comment header used by
/// [`crate::Artifact::disassemble`].
impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; module: {}", self.module_hash)?;
        writeln!(f, "; pipeline: {}", self.pipeline_fingerprint)?;
        writeln!(f, "; artifact: {}", self.artifact_fingerprint)?;
        writeln!(f, "; passes: [{}]", self.passes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Provenance {
        Provenance {
            module_hash: "00deadbeef001234".to_string(),
            pipeline_fingerprint: "cfi=Full;passes=[x]".to_string(),
            artifact_fingerprint: "cfi=Full;passes=[x]|module=00deadbeef001234".to_string(),
            passes: vec!["loop-decoupler".to_string(), "an-coder".to_string()],
        }
    }

    #[test]
    fn json_carries_every_field() {
        let json = sample().to_json();
        assert!(json.contains("\"module_hash\":\"00deadbeef001234\""));
        assert!(json.contains("\"passes\":[\"loop-decoupler\",\"an-coder\"]"));
        assert!(json.contains("\"pipeline_fingerprint\""));
        assert!(json.contains("\"artifact_fingerprint\""));
        assert_eq!(
            json,
            concat!(
                r#"{"module_hash":"00deadbeef001234","pipeline_fingerprint":"cfi=Full;passes=[x]","#,
                r#""artifact_fingerprint":"cfi=Full;passes=[x]|module=00deadbeef001234","#,
                r#""passes":["loop-decoupler","an-coder"]}"#,
            )
        );
        let awkward = Provenance {
            module_hash: "h\"q".to_string(),
            pipeline_fingerprint: "p\\\n".to_string(),
            artifact_fingerprint: "a\u{1}".to_string(),
            passes: Vec::new(),
        };
        assert_eq!(
            awkward.to_json(),
            concat!(
                r#"{"module_hash":"h\"q","pipeline_fingerprint":"p\\\n","#,
                r#""artifact_fingerprint":"a\u0001","passes":[]}"#,
            )
        );
    }

    #[test]
    fn display_is_a_comment_header() {
        let text = sample().to_string();
        for line in text.lines() {
            assert!(line.starts_with("; "), "{line:?}");
        }
        assert!(text.contains("; passes: [loop-decoupler, an-coder]"));
    }
}
