//! Helpers over the vendored `serde_json::Value` for the files the
//! harness reads and writes.

pub use serde_json::Value as Json;
use std::path::Path;

/// A JSON number.
pub fn num(x: f64) -> Json {
    Json::F64(x)
}

/// A JSON string.
pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A JSON object with the given fields, in order.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Read and parse one JSON file.
pub fn read(path: &Path) -> Result<Json, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::parse(&raw).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Write `value` pretty-printed, creating the parent directory.
pub fn write(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}
