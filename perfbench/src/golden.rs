//! The committed golden renderings, split into the `== caption ==`
//! blocks that `regen` prints and `regend` serves.

use bench::Artifact;

pub const GOLDEN_FILE: &str = "results_regenerated.txt";

pub struct Golden {
    /// `(caption, block)`, where a block runs from its header line up to
    /// the next header.
    blocks: Vec<(String, String)>,
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(GOLDEN_FILE)
            .map_err(|e| format!("cannot read {GOLDEN_FILE}: {e}"))?;
        let mut starts: Vec<(usize, String)> = Vec::new();
        let mut offset = 0;
        for line in text.split_inclusive('\n') {
            let bare = line.trim_end_matches('\n');
            if let Some(caption) = bare.strip_prefix("== ").and_then(|s| s.strip_suffix(" ==")) {
                starts.push((offset, caption.to_string()));
            }
            offset += line.len();
        }
        if starts.first().map(|s| s.0) != Some(0) {
            return Err(format!("{GOLDEN_FILE} does not start with a block header"));
        }
        let ends = starts.iter().skip(1).map(|s| s.0).chain([text.len()]);
        let blocks = starts
            .iter()
            .zip(ends)
            .map(|((start, caption), end)| (caption.clone(), text[*start..end].to_string()))
            .collect();
        Ok(Golden { blocks })
    }

    /// The block `regen <name>` prints and `GET /artifact/<name>` serves.
    pub fn block(&self, name: &str) -> Result<&str, String> {
        let artifact = Artifact::parse(name).ok_or_else(|| format!("unknown artifact {name}"))?;
        self.blocks
            .iter()
            .find(|(caption, _)| caption == artifact.caption())
            .map(|(_, block)| block.as_str())
            .ok_or_else(|| format!("{GOLDEN_FILE} has no block for {name}"))
    }
}
