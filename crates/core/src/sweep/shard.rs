//! Sharded, resumable sweep execution with a deterministic merge.
//!
//! A paper-scale scenario population outgrows one machine. This module
//! splits a sweep into `n` **shards** that can run on independent machines
//! (or sequentially on one), each checkpointing its progress to a JSONL
//! file, and merges the checkpoints back into a report **byte-identical**
//! to the unsharded run:
//!
//! * [`ShardSpec`] — the `k/n` stripe: shard `k` owns every scenario whose
//!   plan id satisfies `id % n == k`. Striping is by stable scenario id, so
//!   the partition is independent of `--jobs`, and derived per-scenario
//!   seeds (assigned at plan-build time from the id) are unchanged.
//! * [`ShardSession`] — an append-only checkpoint: a manifest header line
//!   (experiment, scale, seed, shard spec, schema fingerprint) followed by
//!   one line per completed scenario carrying the experiment's **fold
//!   value** for that scenario. Re-opening an existing checkpoint validates
//!   the manifest, discards a torn trailing line, and reports the already-
//!   completed ids so a killed shard resumes losing at most its in-flight
//!   scenarios.
//! * [`MergedValues`] — the reassembled fold values of a full shard set
//!   (indices exactly `0..n`), keyed by `(experiment, scenario id)`.
//! * [`Checkpoint`] — how a fold value travels through a checkpoint. Each
//!   fold value declares its fields once, and the encoder, the decoder and
//!   the schema entry the manifest fingerprint hashes are all derived from
//!   that declaration.
//!
//! The experiment [`Driver`](crate::experiments::Driver) is the execution
//! seam: under [`SweepExec::Shard`] it runs only the stripe's pending ids
//! and checkpoints each fold value; under [`SweepExec::Merge`] it runs
//! **nothing**, decoding the checkpointed values in scenario-id order
//! instead — after which the experiment's unchanged aggregation code
//! produces the byte-identical report.
//!
//! Checkpointing the *fold values* (not the report records) is what makes
//! the merge provably byte-identical: aggregation (means, confidence
//! intervals, knee detection) runs exactly once, at merge time, over values
//! in the exact id order a full run would have produced.

use crate::config::PolicyKind;
use crate::experiments::{schema_fingerprint, ExperimentScale};
use crate::json::{self, Value};
use gpreempt_types::{SimError, SimTime};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn io_err(what: &str, e: std::io::Error) -> SimError {
    SimError::internal(format!("shard checkpoint {what}: {e}"))
}

// ---------------------------------------------------------------------------
// ShardSpec
// ---------------------------------------------------------------------------

/// One stripe of a sharded sweep: shard `index` of `count` owns every
/// scenario id congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 ≤ index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Parses the CLI form `k/n` (e.g. `--shard 1/3`).
    ///
    /// # Errors
    ///
    /// Rejects malformed input, `n == 0`, and `k >= n`.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let invalid = || {
            SimError::internal(format!(
                "invalid shard spec {text:?}: expected k/n with 0 <= k < n (e.g. 0/3)"
            ))
        };
        let (k, n) = text.split_once('/').ok_or_else(invalid)?;
        let index: u32 = k.trim().parse().map_err(|_| invalid())?;
        let count: u32 = n.trim().parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this shard owns the scenario with plan id `id`.
    pub fn owns(&self, id: usize) -> bool {
        id as u64 % u64::from(self.count) == u64::from(self.index)
    }

    /// The ids of this shard's stripe within a plan of `plan_len`
    /// scenarios, ascending.
    pub fn stripe(&self, plan_len: usize) -> Vec<usize> {
        (0..plan_len).filter(|&id| self.owns(id)).collect()
    }

    /// The `k/n` rendering (inverse of [`parse`](Self::parse)).
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The checkpoint header: everything a resume or merge must agree on
/// before trusting the file's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// The experiment selector this invocation runs (`"all"` or one name).
    pub experiment: String,
    /// The scale name (`"quick"` / `"bench"` / `"paper"`).
    pub scale: String,
    /// The effective workload-generation seed (after any `--seed`).
    pub seed: u64,
    /// This checkpoint's stripe.
    pub shard: ShardSpec,
    /// [`schema_fingerprint`] of the writing binary.
    pub schema: u64,
    /// Queue-depth trace interval in microseconds, if enabled — it changes
    /// the saturation fold value, so shards must agree on it.
    pub depth_trace_us: Option<u64>,
}

impl ShardManifest {
    /// Builds the manifest for a shard of `experiment` (the `--experiment`
    /// selector) at the scale named `scale_name`, stamping the current
    /// binary's schema fingerprint. Seed and depth-trace interval are read
    /// from `scale`, the scale that actually runs, so a zero interval
    /// (tracing off) records the same `null` as no interval.
    pub fn new(
        experiment: impl Into<String>,
        scale_name: impl Into<String>,
        scale: &ExperimentScale,
        shard: ShardSpec,
    ) -> Self {
        ShardManifest {
            experiment: experiment.into(),
            scale: scale_name.into(),
            seed: scale.seed,
            shard,
            schema: schema_fingerprint(),
            depth_trace_us: scale.depth_trace.map(|t| t.as_nanos() / 1_000),
        }
    }

    /// The manifest's JSON line.
    pub fn to_json(&self) -> String {
        Value::object([
            ("manifest", Value::from(1u64)),
            ("experiment", Value::from(self.experiment.as_str())),
            ("scale", Value::from(self.scale.as_str())),
            ("seed", Value::from(self.seed)),
            ("shard_index", Value::from(u64::from(self.shard.index))),
            ("shard_count", Value::from(u64::from(self.shard.count))),
            ("schema", Value::from(self.schema)),
            (
                "depth_trace_us",
                self.depth_trace_us.map_or(Value::Null, Value::from),
            ),
        ])
        .to_json()
    }

    /// Parses the manifest line of the checkpoint `path` (named in every
    /// error).
    fn parse(line: &str, path: &str) -> Result<Self, SimError> {
        let bad =
            |what: &str| SimError::internal(format!("invalid shard manifest in {path}: {what}"));
        let v = json::parse(line).map_err(|e| bad(&e))?;
        if v.get("manifest").and_then(Value::as_u64) != Some(1) {
            return Err(bad(
                "missing manifest:1 marker (is this a shard checkpoint?)",
            ));
        }
        let field = |key: &str| v.get(key).ok_or_else(|| bad(&format!("missing {key}")));
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("{key} is not a string")))
        };
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| bad(&format!("{key} is not an unsigned integer")))
        };
        let index = u32::try_from(uint("shard_index")?).map_err(|_| bad("shard_index range"))?;
        let count = u32::try_from(uint("shard_count")?).map_err(|_| bad("shard_count range"))?;
        if count == 0 || index >= count {
            return Err(bad("shard_index/shard_count do not form a valid stripe"));
        }
        let depth_trace_us = match field("depth_trace_us")? {
            Value::Null => None,
            other => {
                let us = other
                    .as_u64()
                    .ok_or_else(|| bad("depth_trace_us is not an unsigned integer"))?;
                if SimTime::checked_from_micros(us).is_none() {
                    return Err(bad(&format!(
                        "depth_trace_us {us} exceeds the largest interval, {} us",
                        u64::MAX / 1_000
                    )));
                }
                Some(us)
            }
        };
        Ok(ShardManifest {
            experiment: string("experiment")?,
            scale: string("scale")?,
            seed: uint("seed")?,
            shard: ShardSpec { index, count },
            schema: uint("schema")?,
            depth_trace_us,
        })
    }

    /// Checks that `other` (an on-disk manifest) is compatible with this
    /// expected manifest for a resume: every field including the stripe
    /// must match.
    fn ensure_matches(&self, other: &ShardManifest, path: &str) -> Result<(), SimError> {
        let mismatch = |field: &str, want: &str, got: &str| {
            SimError::internal(format!(
                "shard checkpoint {path} does not match this invocation: \
                 {field} is {got}, expected {want} \
                 (delete the file to start this shard from scratch)"
            ))
        };
        if other.experiment != self.experiment {
            return Err(mismatch("experiment", &self.experiment, &other.experiment));
        }
        if other.scale != self.scale {
            return Err(mismatch("scale", &self.scale, &other.scale));
        }
        if other.seed != self.seed {
            return Err(mismatch(
                "seed",
                &self.seed.to_string(),
                &other.seed.to_string(),
            ));
        }
        if other.shard != self.shard {
            return Err(mismatch("shard", &self.shard.label(), &other.shard.label()));
        }
        if other.schema != self.schema {
            return Err(mismatch(
                "schema fingerprint",
                &format!("{:016x}", self.schema),
                &format!("{:016x}", other.schema),
            ));
        }
        if other.depth_trace_us != self.depth_trace_us {
            return Err(mismatch(
                "depth_trace_us",
                &format!("{:?}", self.depth_trace_us),
                &format!("{:?}", other.depth_trace_us),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checkpoint records
// ---------------------------------------------------------------------------

/// One parsed checkpoint line: which scenario it belongs to and the fold
/// value the experiment's codec will decode.
fn parse_record(line: &str) -> Result<(String, usize, Value), SimError> {
    let bad = |what: &str| SimError::internal(format!("invalid shard record: {what}"));
    let v = json::parse(line).map_err(|e| bad(&e))?;
    let experiment = v
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing experiment"))?
        .to_string();
    let id = v
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing id"))? as usize;
    let value = v.get("value").ok_or_else(|| bad("missing value"))?.clone();
    Ok((experiment, id, value))
}

// ---------------------------------------------------------------------------
// ShardSession
// ---------------------------------------------------------------------------

/// An open shard checkpoint: tracks which `(experiment, scenario id)` pairs
/// are already durable and appends one line per newly completed scenario
/// (flushed immediately, so a kill loses only in-flight scenarios).
///
/// `Sync`: the record writer is mutex-guarded, so one session serves every
/// worker of the sweep.
#[derive(Debug)]
pub struct ShardSession {
    manifest: ShardManifest,
    done: HashSet<(String, usize)>,
    resumed: usize,
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
    written: AtomicU64,
}

impl ShardSession {
    /// Opens the checkpoint at `path` for the given manifest. A missing or
    /// empty file starts a fresh shard (the manifest line is written
    /// immediately). An existing file **resumes**: its manifest must match,
    /// its valid record prefix becomes the done-set, a torn trailing line
    /// (the write the kill interrupted) is discarded, and the file is
    /// rewritten to the valid prefix before appending continues.
    ///
    /// # Errors
    ///
    /// I/O failures, an unparseable or mismatched manifest, or a record
    /// naming an id outside this shard's stripe.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        manifest: ShardManifest,
    ) -> Result<Self, SimError> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err("read failed", e)),
        };

        let mut done = HashSet::new();
        let mut valid_lines: Vec<&str> = Vec::new();
        let mut lines = existing.lines();
        if let Some(header) = lines.next() {
            let on_disk = ShardManifest::parse(header, &shown)?;
            manifest.ensure_matches(&on_disk, &shown)?;
            valid_lines.push(header);
            for line in lines {
                // The torn tail: a line the kill cut short (or trailing
                // garbage). Everything after the first unparseable line is
                // discarded — records are only ever appended, so the valid
                // prefix is exactly the completed work.
                let Ok((experiment, id, _)) = parse_record(line) else {
                    break;
                };
                if !manifest.shard.owns(id) {
                    return Err(SimError::internal(format!(
                        "shard checkpoint {shown} contains scenario id {id}, \
                         which shard {} does not own",
                        manifest.shard.label()
                    )));
                }
                done.insert((experiment, id));
                valid_lines.push(line);
            }
        }

        // Rewrite the file to its valid prefix (manifest + intact records);
        // for a fresh shard this just writes the manifest line.
        let file = std::fs::File::create(path).map_err(|e| io_err("create failed", e))?;
        let mut writer = std::io::BufWriter::new(file);
        if valid_lines.is_empty() {
            writer
                .write_all(manifest.to_json().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| io_err("manifest write failed", e))?;
        } else {
            for line in &valid_lines {
                writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .map_err(|e| io_err("rewrite failed", e))?;
            }
        }
        writer.flush().map_err(|e| io_err("flush failed", e))?;

        Ok(ShardSession {
            manifest,
            resumed: done.len(),
            done,
            writer: Mutex::new(writer),
            written: AtomicU64::new(0),
        })
    }

    /// The manifest this session was opened with.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of records recovered from a previous run of this shard.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Number of records appended by *this* run (excludes resumed ones).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// The ids of `experiment`'s plan this shard still has to run: its
    /// stripe minus the ids already checkpointed.
    pub fn pending_ids(&self, experiment: &str, plan_len: usize) -> Vec<usize> {
        (0..plan_len)
            .filter(|&id| {
                self.manifest.shard.owns(id) && !self.done.contains(&(experiment.to_string(), id))
            })
            .collect()
    }

    /// Appends one completed scenario's encoded fold value and flushes it,
    /// making it durable before the runner moves on.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure (aborting the sweep, like a failing tap).
    pub fn record(&self, experiment: &str, id: usize, value: Value) -> Result<(), SimError> {
        let line = Value::object([
            ("experiment", Value::from(experiment)),
            ("id", Value::from(id as u64)),
            ("value", value),
        ])
        .to_json();
        let mut writer = self.writer.lock().expect("shard checkpoint poisoned");
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| io_err("record write failed", e))?;
        self.written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MergedValues
// ---------------------------------------------------------------------------

/// The reassembled fold values of a complete shard set, ready for the
/// experiments' aggregation code to consume in scenario-id order.
#[derive(Debug)]
pub struct MergedValues {
    manifest: ShardManifest,
    values: HashMap<(String, usize), Value>,
}

impl MergedValues {
    /// Loads and cross-validates a set of shard checkpoints: every manifest
    /// must agree on experiment / scale / seed / schema / depth-trace and
    /// on the shard count, the shard indices must be exactly `0..count`
    /// (each once), and every record must belong to its file's stripe.
    ///
    /// Completeness per experiment is *not* checked here — plan lengths are
    /// only known once the plans are rebuilt; the merge run reports the
    /// first missing id.
    ///
    /// # Errors
    ///
    /// Any manifest disagreement, duplicate or missing shard index,
    /// out-of-stripe or duplicate record, or I/O failure.
    pub fn load<P: AsRef<std::path::Path>>(paths: &[P]) -> Result<Self, SimError> {
        if paths.is_empty() {
            return Err(SimError::internal("merge needs at least one shard file"));
        }
        let mut reference: Option<ShardManifest> = None;
        let mut seen_indices: HashSet<u32> = HashSet::new();
        let mut values: HashMap<(String, usize), Value> = HashMap::new();
        for path in paths {
            let shown = path.as_ref().display().to_string();
            let text = std::fs::read_to_string(path)
                .map_err(|e| SimError::internal(format!("cannot read shard {shown}: {e}")))?;
            let mut lines = text.lines();
            let manifest = ShardManifest::parse(lines.next().unwrap_or_default(), &shown)?;
            match &reference {
                None => reference = Some(manifest.clone()),
                Some(first) => {
                    // Compare everything but the stripe index by pretending
                    // the expected index is this file's: only genuine
                    // incompatibilities remain.
                    let mut expected = first.clone();
                    expected.shard.index = manifest.shard.index;
                    expected.ensure_matches(&manifest, &shown)?;
                }
            }
            if !seen_indices.insert(manifest.shard.index) {
                return Err(SimError::internal(format!(
                    "duplicate shard index {} (file {shown})",
                    manifest.shard.index
                )));
            }
            for line in lines {
                let (experiment, id, value) =
                    parse_record(line).map_err(|e| SimError::internal(format!("{shown}: {e}")))?;
                if !manifest.shard.owns(id) {
                    return Err(SimError::internal(format!(
                        "{shown}: scenario id {id} does not belong to shard {}",
                        manifest.shard.label()
                    )));
                }
                if values.insert((experiment.clone(), id), value).is_some() {
                    return Err(SimError::internal(format!(
                        "{shown}: duplicate record for experiment {experiment} scenario {id}"
                    )));
                }
            }
        }
        let manifest = reference.expect("at least one shard file");
        let missing: Vec<u32> = (0..manifest.shard.count)
            .filter(|i| !seen_indices.contains(i))
            .collect();
        if !missing.is_empty() {
            return Err(SimError::internal(format!(
                "incomplete shard set: {} file(s) for {} shards (missing indices {missing:?})",
                seen_indices.len(),
                manifest.shard.count
            )));
        }
        Ok(MergedValues { manifest, values })
    }

    /// The agreed-on manifest (the stripe index is the first file's and
    /// carries no meaning after a merge).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The checkpointed fold value of one scenario.
    ///
    /// # Errors
    ///
    /// A missing value means a shard was killed and never resumed to
    /// completion — the error names the hole.
    pub fn value(&self, experiment: &str, id: usize) -> Result<&Value, SimError> {
        self.values
            .get(&(experiment.to_string(), id))
            .ok_or_else(|| {
                SimError::internal(format!(
                    "shard set is missing experiment {experiment} scenario {id}: \
                     re-run the shard owning id {id} to complete its checkpoint"
                ))
            })
    }

    /// Total number of merged records across all experiments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the shard set carried no records at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Execution modes
// ---------------------------------------------------------------------------

/// How the experiment driver executes a plan.
#[derive(Debug, Clone, Copy)]
pub enum SweepExec<'a> {
    /// Simulate every scenario.
    Full,
    /// Simulate only this shard's pending stripe, checkpointing fold
    /// values; aggregation is skipped (the experiment yields no results).
    Shard(&'a ShardSession),
    /// Simulate nothing: decode the checkpointed fold values in
    /// scenario-id order and aggregate exactly as a full run would.
    Merge(&'a MergedValues),
}

// ---------------------------------------------------------------------------
// Checkpoint codecs
// ---------------------------------------------------------------------------

/// A per-scenario fold value that a shard checkpoints and a merge decodes.
///
/// Never written by hand: the crate's `checkpointed!` macro wraps the
/// value's struct definition and derives all three items from its field
/// list. Keys follow field order, and each field's type supplies its
/// encoding, its key suffix and its schema nesting, so the encoder, the
/// decoder and the schema entry cannot drift apart.
pub trait Checkpoint: Sized {
    /// The schema entry: the field keys in declaration order, one `[]` per
    /// `Vec` level, comma-separated (e.g. `ntt[],antt,stp,fairness`).
    fn schema() -> String;

    /// Value → checkpoint JSON object.
    fn encode(&self) -> Value;

    /// Checkpoint JSON object → value.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed field (schema drift the fingerprint
    /// should have caught — or a hand-edited checkpoint).
    fn decode(value: &Value) -> Result<Self, SimError>;
}

/// One field type of a [`Checkpoint`] value. The round trip is exact,
/// including non-finite floats, which report JSON cannot represent.
pub(crate) trait FieldCodec: Sized {
    /// Appended to the field name to form its key (`_ns` on [`SimTime`]).
    const KEY_SUFFIX: &'static str = "";
    /// `Vec` nesting depth: the schema entry carries one `[]` per level.
    const NESTING: usize = 0;

    /// The field's JSON encoding.
    fn encode(&self) -> Value;

    /// Decodes [`encode`](Self::encode)'s output.
    ///
    /// # Errors
    ///
    /// Describes a value of the wrong type or out of range.
    fn decode(value: &Value) -> Result<Self, String>;
}

/// Finite values use the JSON number's shortest-representation writer
/// (which round-trips bit for bit); non-finite values — which report JSON
/// writes as `null` — become the strings `"inf"` / `"-inf"` / `"nan"`.
impl FieldCodec for f64 {
    fn encode(&self) -> Value {
        if self.is_finite() {
            Value::from(*self)
        } else if self.is_nan() {
            Value::from("nan")
        } else if *self > 0.0 {
            Value::from("inf")
        } else {
            Value::from("-inf")
        }
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::String(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                other => Err(format!(
                    "expected a number or non-finite sentinel, found {other:?}"
                )),
            },
            other => other
                .as_f64()
                .ok_or_else(|| format!("expected a number, found {other:?}")),
        }
    }
}

impl FieldCodec for u64 {
    fn encode(&self) -> Value {
        Value::from(*self)
    }

    fn decode(value: &Value) -> Result<Self, String> {
        value
            .as_u64()
            .ok_or_else(|| format!("expected an unsigned integer, found {value:?}"))
    }
}

impl FieldCodec for u32 {
    fn encode(&self) -> Value {
        Value::from(u64::from(*self))
    }

    fn decode(value: &Value) -> Result<Self, String> {
        let wide = u64::decode(value)?;
        u32::try_from(wide).map_err(|_| format!("{wide} exceeds u32 range"))
    }
}

/// Exact nanoseconds.
impl FieldCodec for SimTime {
    const KEY_SUFFIX: &'static str = "_ns";

    fn encode(&self) -> Value {
        Value::from(self.as_nanos())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        u64::decode(value).map(SimTime::from_nanos)
    }
}

/// The policy's label, since a decoder sees only the value, not the
/// scenario that produced it.
impl FieldCodec for PolicyKind {
    fn encode(&self) -> Value {
        Value::from(self.label())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        let label = value.as_str().unwrap_or_default();
        PolicyKind::all()
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| format!("unknown policy label {label:?}"))
    }
}

impl<T: FieldCodec> FieldCodec for Vec<T> {
    const KEY_SUFFIX: &'static str = T::KEY_SUFFIX;
    const NESTING: usize = T::NESTING + 1;

    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        value
            .as_array()
            .ok_or_else(|| format!("expected an array, found {value:?}"))?
            .iter()
            .map(T::decode)
            .collect()
    }
}

/// The JSON key of a field named `name` of type `T`.
pub(crate) fn field_key<T: FieldCodec>(name: &str) -> String {
    format!("{name}{}", T::KEY_SUFFIX)
}

/// The schema entry of a field named `name` of type `T`.
pub(crate) fn schema_key<T: FieldCodec>(name: &str) -> String {
    field_key::<T>(name) + &"[]".repeat(T::NESTING)
}

/// Decodes the required field `name` of a checkpoint value object.
pub(crate) fn decode_field<T: FieldCodec>(object: &Value, name: &str) -> Result<T, SimError> {
    let key = field_key::<T>(name);
    let value = object
        .get(&key)
        .ok_or_else(|| SimError::internal(format!("checkpoint value is missing field {key:?}")))?;
    T::decode(value).map_err(|e| SimError::internal(format!("checkpoint field {key:?}: {e}")))
}

/// Declares a checkpointed fold value: emits the struct exactly as written
/// and derives its [`Checkpoint`] impl from the field list.
macro_rules! checkpointed {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::sweep::shard::Checkpoint for $name {
            fn schema() -> String {
                [$($crate::sweep::shard::schema_key::<$ty>(stringify!($field))),*].join(",")
            }

            fn encode(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![$((
                    $crate::sweep::shard::field_key::<$ty>(stringify!($field)),
                    $crate::sweep::shard::FieldCodec::encode(&self.$field),
                )),*])
            }

            fn decode(value: &$crate::json::Value) -> Result<Self, $crate::types::SimError> {
                Ok($name {
                    $($field: $crate::sweep::shard::decode_field(value, stringify!($field))?,)*
                })
            }
        }
    };
}
pub(crate) use checkpointed;

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gpreempt-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn manifest(shard: ShardSpec) -> ShardManifest {
        ShardManifest::new("all", "quick", &ExperimentScale::quick(), shard)
    }

    #[test]
    fn shard_spec_parses_and_stripes() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.label(), "1/3");
        assert_eq!(s.stripe(8), vec![1, 4, 7]);
        assert!(ShardSpec::parse("3/3").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x/2").is_err());
        assert!(ShardSpec::parse("2").is_err());
        // Every id is owned by exactly one shard.
        for id in 0..50 {
            let owners = (0..5)
                .filter(|&k| ShardSpec { index: k, count: 5 }.owns(id))
                .count();
            assert_eq!(owners, 1, "id {id}");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let mut scale = ExperimentScale::bench().with_depth_trace(Some(SimTime::from_micros(250)));
        scale.seed = 42;
        let m = ShardManifest::new(
            "saturation",
            "bench",
            &scale,
            ShardSpec { index: 2, count: 4 },
        );
        assert_eq!((m.seed, m.depth_trace_us), (42, Some(250)));
        let parsed = ShardManifest::parse(&m.to_json(), "shard.jsonl").unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.schema, schema_fingerprint());
    }

    #[test]
    fn zero_depth_trace_records_like_no_trace() {
        let spec = ShardSpec { index: 0, count: 2 };
        let traced = ExperimentScale::quick().with_depth_trace(Some(SimTime::ZERO));
        let zero = ShardManifest::new("fig2", "quick", &traced, spec);
        assert_eq!(
            zero,
            ShardManifest::new("fig2", "quick", &ExperimentScale::quick(), spec)
        );
        assert!(zero.to_json().contains(r#""depth_trace_us":null"#));
    }

    /// A depth-trace interval whose nanosecond count overflows would wrap
    /// to a different interval (or to zero, "tracing off"): such a
    /// checkpoint fails to load, naming the file and the field.
    #[test]
    fn overflowing_depth_trace_fails_to_load() {
        let dir = temp_dir("depth-overflow");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 0, count: 1 };
        let mut m = manifest(spec);
        m.depth_trace_us = Some(u64::MAX / 1_000 + 1);
        std::fs::write(&path, format!("{}\n", m.to_json())).unwrap();
        let shown = path.display().to_string();
        let merge = MergedValues::load(&[&path]).unwrap_err().to_string();
        let resume = ShardSession::open(&path, m).unwrap_err().to_string();
        for err in [merge, resume] {
            assert!(err.contains(&shown), "{err}");
            assert!(err.contains("depth_trace_us 18446744073709552"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn f64_codec_round_trips_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.0,
            0.1,
            1234567.890123,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            // Through the actual JSON writer + parser, like a real checkpoint.
            let line = Value::Object(vec![("v".to_string(), v.encode())]).to_json();
            let back = f64::decode(json::parse(&line).unwrap().get("v").unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        let line = Value::Object(vec![("v".to_string(), f64::NAN.encode())]).to_json();
        assert!(f64::decode(json::parse(&line).unwrap().get("v").unwrap())
            .unwrap()
            .is_nan());
        assert!(f64::decode(&Value::from("bogus")).is_err());
        assert!(f64::decode(&Value::Null).is_err());
    }

    #[test]
    fn field_codecs_spell_keys_and_check_ranges() {
        assert_eq!(field_key::<SimTime>("k3_start"), "k3_start_ns");
        assert_eq!(
            schema_key::<Vec<Vec<u32>>>("depth_traces"),
            "depth_traces[][]"
        );
        assert_eq!(schema_key::<Vec<f64>>("ntt"), "ntt[]");
        assert_eq!(u32::decode(&Value::from(u64::from(u32::MAX))), Ok(u32::MAX));
        let err = u32::decode(&Value::from(1u64 << 32)).unwrap_err();
        assert!(err.contains("exceeds u32 range"), "{err}");
        assert_eq!(
            PolicyKind::decode(&PolicyKind::Gcaps.encode()),
            Ok(PolicyKind::Gcaps)
        );
        assert!(PolicyKind::decode(&Value::from("nonsense")).is_err());
        let object = Value::object([("stp", 1.5.encode())]);
        assert_eq!(decode_field::<f64>(&object, "stp").unwrap(), 1.5);
        let missing = decode_field::<f64>(&object, "antt").unwrap_err();
        assert!(
            missing.to_string().contains("missing field \"antt\""),
            "{missing}"
        );
    }

    #[test]
    fn session_checkpoints_and_resumes() {
        let dir = temp_dir("resume");
        let path = dir.join("shard0.jsonl");
        let spec = ShardSpec { index: 0, count: 2 };
        {
            let session = ShardSession::open(&path, manifest(spec)).unwrap();
            assert_eq!(session.resumed(), 0);
            assert_eq!(session.pending_ids("fig2", 5), vec![0, 2, 4]);
            session.record("fig2", 0, 10u64.encode()).unwrap();
            session.record("fig2", 2, 20u64.encode()).unwrap();
            assert_eq!(session.written(), 2);
        }
        // Reopen: the two records are recovered, only id 4 is pending.
        let session = ShardSession::open(&path, manifest(spec)).unwrap();
        assert_eq!(session.resumed(), 2);
        assert_eq!(session.pending_ids("fig2", 5), vec![4]);
        // An unrelated experiment is untouched by fig2's checkpoints.
        assert_eq!(session.pending_ids("spatial", 3), vec![0, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_on_resume() {
        let dir = temp_dir("torn");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 1, count: 3 };
        {
            let session = ShardSession::open(&path, manifest(spec)).unwrap();
            session.record("fig2", 1, 1u64.encode()).unwrap();
            session.record("fig2", 4, 4u64.encode()).unwrap();
        }
        // Simulate a kill mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let session = ShardSession::open(&path, manifest(spec)).unwrap();
        assert_eq!(session.resumed(), 1, "the torn record is gone");
        assert_eq!(session.pending_ids("fig2", 6), vec![4]);
        // The rewrite left a fully valid file.
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 2);
        for line in rewritten.lines() {
            json::parse(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_manifest_refuses_to_resume() {
        let dir = temp_dir("mismatch");
        let path = dir.join("shard.jsonl");
        let spec = ShardSpec { index: 0, count: 2 };
        drop(ShardSession::open(&path, manifest(spec)).unwrap());
        let mut other = manifest(spec);
        other.seed = 99;
        let err = ShardSession::open(&path, other).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        let mut other = manifest(spec);
        other.schema ^= 1;
        let err = ShardSession::open(&path, other).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_validates_the_shard_set() {
        let dir = temp_dir("merge");
        let paths: Vec<_> = (0..3).map(|k| dir.join(format!("s{k}.jsonl"))).collect();
        for (k, path) in paths.iter().enumerate() {
            let spec = ShardSpec {
                index: k as u32,
                count: 3,
            };
            let session = ShardSession::open(path, manifest(spec)).unwrap();
            for id in spec.stripe(7) {
                session
                    .record("fig2", id, (id as u64 * 10).encode())
                    .unwrap();
            }
        }
        let merged = MergedValues::load(&paths).unwrap();
        assert_eq!(merged.len(), 7);
        assert!(!merged.is_empty());
        for id in 0..7 {
            assert_eq!(
                u64::decode(merged.value("fig2", id).unwrap()).unwrap(),
                id as u64 * 10
            );
        }
        let missing = merged.value("fig2", 7).unwrap_err();
        assert!(missing.to_string().contains("scenario 7"), "{missing}");

        // An incomplete set names the missing index.
        let err = MergedValues::load(&paths[..2]).unwrap_err();
        assert!(err.to_string().contains("missing indices [2]"), "{err}");
        // A duplicated file is a duplicate index.
        let err = MergedValues::load(&[&paths[0], &paths[0]]).unwrap_err();
        assert!(err.to_string().contains("duplicate shard index"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rejects_incompatible_manifests() {
        let dir = temp_dir("merge-bad");
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        drop(ShardSession::open(&a, manifest(ShardSpec { index: 0, count: 2 })).unwrap());
        let mut other = manifest(ShardSpec { index: 1, count: 2 });
        other.seed = 7;
        drop(ShardSession::open(&b, other).unwrap());
        let err = MergedValues::load(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
