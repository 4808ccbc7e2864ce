//! Table I analog: the software/experiment infrastructure manifest.

use crate::experiment::Harness;

/// One manifest entry: component, version, configuration notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Component name.
    pub component: String,
    /// Version.
    pub version: String,
    /// Configuration options.
    pub config: String,
}

/// Builds the Table-I analog for a harness: what the paper listed as
/// OpenSUSE/PAPI/GCC/BOTS/OpenBLAS becomes the workspace crates plus the
/// simulated machine.
pub fn manifest(h: &Harness) -> Vec<ManifestEntry> {
    let v = env!("CARGO_PKG_VERSION").to_string();
    vec![
        ManifestEntry {
            component: "powerscale-machine (platform)".into(),
            version: v.clone(),
            config: h.machine.name.clone(),
        },
        ManifestEntry {
            component: "powerscale-rapl (power measurement)".into(),
            version: v.clone(),
            config: "model backend, PKG/PP0/DRAM planes, 64 samples/run".into(),
        },
        ManifestEntry {
            component: "powerscale-gemm (blocked DGEMM)".into(),
            version: v.clone(),
            config: format!(
                "mc={} kc={} nc={} (cache-derived)",
                h.blocking.mc, h.blocking.kc, h.blocking.nc
            ),
        },
        ManifestEntry {
            component: "powerscale-strassen".into(),
            version: v.clone(),
            config: format!(
                "cutoff={} task_depth={} variant=Classic",
                h.strassen.cutoff, h.strassen.task_depth
            ),
        },
        ManifestEntry {
            component: "powerscale-caps".into(),
            version: v,
            // CAPS shares its DFS steps across all of the machine's cores.
            config: format!(
                "cutoff={} cutoff_depth={} cores={}",
                h.caps.cutoff, h.caps.cutoff_depth, h.machine.cores
            ),
        },
    ]
}

/// Renders the manifest as a Markdown table (the Table I analog).
pub fn to_markdown(entries: &[ManifestEntry]) -> String {
    let mut s = String::from(
        "**Table I — Software infrastructure**\n\n| Component | Version | Configuration |\n|---|---|---|\n",
    );
    for e in entries {
        s.push_str(&format!(
            "| {} | {} | {} |\n",
            e.component, e.version, e.config
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_covers_all_components() {
        let h = Harness::default();
        let m = manifest(&h);
        assert_eq!(m.len(), 5);
        assert!(m.iter().any(|e| e.component.contains("strassen")));
        assert!(m.iter().any(|e| e.config.contains("cutoff=64")));
    }

    #[test]
    fn markdown_render() {
        let h = Harness::default();
        let md = to_markdown(&manifest(&h));
        assert!(md.contains("Table I"));
        assert!(md.contains("| powerscale-caps |") || md.contains("powerscale-caps"));
    }
}
