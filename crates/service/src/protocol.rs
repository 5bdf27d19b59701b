//! The newline-delimited wire protocol of the compile service.
//!
//! Every request and response is one line of JSON (embedded newlines in
//! QASM sources are JSON-escaped, so framing never breaks). Requests carry
//! a `cmd` discriminator:
//!
//! ```text
//! {"cmd":"submit","qasm":"OPENQASM 2.0;...","seed":0,"machine":"quera","quick":true}
//! {"cmd":"submit","workload":"QFT","seed":3,"priority":9,"id":17}
//! {"cmd":"submit-sweep","workload":"QAOA","seed":3,"params":[[0.1,0.2],[0.3,0.4]]}
//! {"cmd":"stats"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! {"cmd":"cache","op":"flush"}
//! {"cmd":"cache","op":"resize","bytes":8388608}
//! {"cmd":"cache","op":"persist"}
//! {"cmd":"drain"}
//! {"cmd":"shards"}
//! ```
//!
//! The last five are the **admin plane** (see `docs/FABRIC.md`): result
//! cache management, draining a shard without killing its process, and
//! fabric topology. They ride the same newline-JSON framing as data ops,
//! so one client speaks both.
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":"..."}`. A
//! submit response embeds the canonical compilation payload under
//! `"result"` (see [`compile_payload`]); because the [`crate::json`]
//! encoder is canonical, that payload is **byte-identical** to the payload
//! an in-process `ParallaxCompiler::compile` call produces for the same
//! circuit, seed, machine, and knobs — the property the end-to-end suite
//! asserts.
//!
//! `submit-sweep` is the variational fast path: one circuit *structure*
//! plus N parameter vectors. The server compiles (or fetches) the
//! [`CompiledTemplate`](parallax_core::CompiledTemplate) once and answers
//! with a **stream of N+1 lines** — a sweep header, then one response line
//! per parameter point carrying its rebind timing and the shared payload.
//! A sweep that fails validation (wrong arity, non-finite angles, empty
//! `params`) is refused with a single structured error line before any
//! compilation happens.

use crate::json::{self, Json};
use parallax_circuit::{from_qasm, optimize, Circuit};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler, SchedulingMode};
use parallax_graphine::PlacementConfig;
use parallax_hardware::{MachineSpec, StableHasher};

/// How a submit names its circuit: inline QASM text or a Table III
/// workload acronym.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitSource {
    /// OpenQASM 2.0 source text.
    Qasm(String),
    /// A `parallax-workloads` registry acronym (e.g. `"QFT"`).
    Workload(String),
}

/// A parsed submit request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The circuit to compile.
    pub source: SubmitSource,
    /// Seed for every stochastic stage (and workload generation).
    pub seed: u64,
    /// Target machine: `"quera"` (256 sites) or `"atom"` (1225 sites).
    pub machine: String,
    /// Optional AOD row/column override (Fig. 13 knob).
    pub aod_dim: Option<usize>,
    /// Use the fast placement preset (`PlacementConfig::quick`) instead of
    /// the paper-fidelity default.
    pub quick: bool,
    /// Home-return behaviour (Fig. 12 ablation arm).
    pub return_home: bool,
    /// Scheduler arm (wire key `scheduling`): `"single"` (default, paper
    /// Algorithm 1) or `"multi-mover"` (the ROADMAP item 3 ablation).
    pub scheduling: SchedulingMode,
    /// Scheduling priority, 0..=9; higher pops first.
    pub priority: u8,
    /// Optional client-chosen id echoed back in the response, so clients
    /// can assert responses are index-stable.
    pub id: Option<u64>,
    /// Optional client-supplied trace id (wire key `trace_id`): echoed
    /// verbatim in every response line for cross-system correlation. When
    /// absent the server mints one (16 hex digits) and returns it.
    pub trace: Option<String>,
}

/// A parsed submit-sweep request: one circuit structure, N parameter
/// vectors. The submit fields name the structure, machine, and knobs
/// exactly as for a plain submit; `priority` is ignored (sweeps are served
/// inline on the connection, not through the worker queue).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The circuit/machine/knobs the whole sweep shares.
    pub submit: SubmitRequest,
    /// One parameter vector per sweep point; each must match the
    /// structure's slot count (validated against the template server-side).
    pub params: Vec<Vec<f64>>,
}

/// An admin operation on the result-cache tier (`{"cmd":"cache",...}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Drop every in-memory entry (the disk tier is untouched).
    Flush,
    /// Change the in-memory byte budget at runtime (0 disables).
    Resize {
        /// New capacity in payload bytes.
        bytes: usize,
    },
    /// Write every in-memory entry through to the disk tier.
    Persist,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile a circuit.
    Submit(Box<SubmitRequest>),
    /// Compile one structure, rebind N parameter vectors.
    SubmitSweep(Box<SweepRequest>),
    /// Report live service metrics.
    Stats,
    /// Prometheus text exposition of the process-wide metrics registry.
    Metrics,
    /// The last N compile traces from the span ring buffer.
    Trace {
        /// Maximum number of traces to return.
        limit: usize,
    },
    /// Liveness probe.
    Ping,
    /// Drain in-flight work and stop accepting jobs.
    Shutdown,
    /// Admin: manage the result cache (flush / resize / persist).
    Cache(CacheOp),
    /// Admin: stop accepting new submissions and finish accepted work,
    /// but keep the process alive for stats/metrics/admin traffic.
    Drain,
    /// Admin: fabric topology and per-shard health. A router answers with
    /// its shard table; a plain shard answers with its own role and vitals.
    Shards,
}

/// Default number of traces a `TRACE` op returns.
pub const DEFAULT_TRACE_LIMIT: usize = 4;

/// Highest accepted priority (inclusive).
pub const MAX_PRIORITY: u8 = 9;
/// Default submit priority.
pub const DEFAULT_PRIORITY: u8 = 5;

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let cmd = v.get("cmd").and_then(Json::as_str).ok_or("missing string field 'cmd'")?;
    match cmd {
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace {
            limit: match v.get("limit") {
                None => DEFAULT_TRACE_LIMIT,
                Some(n) => n
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .map(|n| n as usize)
                    .ok_or("'limit' must be a positive number")?,
            },
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "drain" => Ok(Request::Drain),
        "shards" => Ok(Request::Shards),
        "cache" => {
            let op = v.get("op").and_then(Json::as_str).ok_or("cache needs a string 'op' field")?;
            match op {
                "flush" => Ok(Request::Cache(CacheOp::Flush)),
                "persist" => Ok(Request::Cache(CacheOp::Persist)),
                "resize" => {
                    let bytes = v
                        .get("bytes")
                        .and_then(Json::as_u64)
                        .ok_or("cache resize needs a non-negative 'bytes' field")?;
                    Ok(Request::Cache(CacheOp::Resize { bytes: bytes as usize }))
                }
                other => Err(format!("unknown cache op '{other}' (flush|resize|persist)")),
            }
        }
        "submit" => Ok(Request::Submit(Box::new(parse_submit_fields(&v)?))),
        "submit-sweep" => Ok(Request::SubmitSweep(Box::new(SweepRequest {
            submit: parse_submit_fields(&v)?,
            params: parse_sweep_params(&v)?,
        }))),
        other => Err(format!("unknown cmd '{other}'")),
    }
}

/// The submit fields shared by `submit` and `submit-sweep`.
fn parse_submit_fields(v: &Json) -> Result<SubmitRequest, String> {
    let qasm = v.get("qasm").and_then(Json::as_str);
    let workload = v.get("workload").and_then(Json::as_str);
    let source = match (qasm, workload) {
        (Some(q), None) => SubmitSource::Qasm(q.to_string()),
        (None, Some(w)) => SubmitSource::Workload(w.to_string()),
        (Some(_), Some(_)) => return Err("provide 'qasm' or 'workload', not both".into()),
        (None, None) => return Err("submit needs a 'qasm' or 'workload' field".into()),
    };
    let priority = match v.get("priority") {
        None => DEFAULT_PRIORITY,
        Some(p) => {
            let p = p.as_u64().ok_or("'priority' must be a non-negative number")?;
            u8::try_from(p)
                .ok()
                .filter(|p| *p <= MAX_PRIORITY)
                .ok_or_else(|| format!("'priority' must be in 0..={MAX_PRIORITY}, got {p}"))?
        }
    };
    let scheduling = match v.get("scheduling").and_then(Json::as_str) {
        None | Some("single") => SchedulingMode::Single,
        Some("multi-mover") => SchedulingMode::MultiMover,
        Some(other) => {
            return Err(format!("unknown scheduling '{other}' (use 'single' or 'multi-mover')"))
        }
    };
    Ok(SubmitRequest {
        source,
        seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
        machine: v.get("machine").and_then(Json::as_str).unwrap_or("quera").to_string(),
        aod_dim: v.get("aod_dim").and_then(Json::as_u64).map(|n| n as usize),
        quick: v.get("quick").and_then(Json::as_bool).unwrap_or(false),
        return_home: v.get("return_home").and_then(Json::as_bool).unwrap_or(true),
        scheduling,
        priority,
        id: v.get("id").and_then(Json::as_u64),
        trace: v.get("trace_id").and_then(Json::as_str).map(str::to_string),
    })
}

/// The `params` array of a `submit-sweep`: non-empty, every point an array
/// of numbers. Arity and finiteness are checked against the resolved
/// template server-side (the slot count is a property of the circuit, not
/// the wire line).
fn parse_sweep_params(v: &Json) -> Result<Vec<Vec<f64>>, String> {
    let Some(Json::Arr(points)) = v.get("params") else {
        return Err("submit-sweep needs a 'params' array of parameter vectors".into());
    };
    if points.is_empty() {
        return Err("empty sweep: 'params' must contain at least one parameter vector".into());
    }
    points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let Json::Arr(values) = point else {
                return Err(format!("'params[{i}]' must be an array of numbers"));
            };
            values
                .iter()
                .enumerate()
                .map(|(j, value)| {
                    value.as_f64().ok_or_else(|| format!("'params[{i}][{j}]' must be a number"))
                })
                .collect()
        })
        .collect()
}

impl SubmitRequest {
    /// Resolve the target [`MachineSpec`]. `aod_dim` must lie in
    /// `1..=num_sites`: an AOD never holds more atoms than the machine has
    /// sites, and the array allocates per-line lanes of that length, so an
    /// unchecked wire value could exhaust memory.
    pub fn machine_spec(&self) -> Result<MachineSpec, String> {
        let mut spec = match self.machine.as_str() {
            "quera" => MachineSpec::quera_aquila_256(),
            "atom" => MachineSpec::atom_1225(),
            other => return Err(format!("unknown machine '{other}' (use 'quera' or 'atom')")),
        };
        if let Some(dim) = self.aod_dim {
            if dim == 0 {
                return Err("'aod_dim' must be positive".into());
            }
            if dim > spec.num_sites() {
                return Err(format!(
                    "'aod_dim' {dim} exceeds the {} sites of {}",
                    spec.num_sites(),
                    spec.name
                ));
            }
            spec = spec.with_aod_dim(dim);
        }
        Ok(spec)
    }

    /// Build the [`CompilerConfig`] this submission asks for. Shared by the
    /// server and by tests computing the expected direct-compile result, so
    /// both sides derive the identical configuration.
    pub fn compiler_config(&self) -> CompilerConfig {
        let placement = if self.quick {
            PlacementConfig::quick(self.seed)
        } else {
            PlacementConfig { seed: self.seed, ..Default::default() }
        };
        CompilerConfig {
            seed: self.seed,
            placement,
            return_home: self.return_home,
            scheduling: self.scheduling,
            ..Default::default()
        }
    }

    /// Build the compiler for this submission.
    pub fn build_compiler(&self) -> Result<ParallaxCompiler, String> {
        Ok(ParallaxCompiler::new(self.machine_spec()?, self.compiler_config()))
    }

    /// Build the compiler and resolve the circuit, rejecting circuits that
    /// outsize the machine. The server compiles what this returns, and the
    /// router derives its ring key from it, so both reject a bad submission
    /// with the same error text.
    pub fn resolve(&self) -> Result<(ParallaxCompiler, Circuit), String> {
        let compiler = self.build_compiler()?;
        let circuit = self.resolve_circuit()?;
        let machine = compiler.machine();
        if circuit.num_qubits() > machine.num_sites() {
            return Err(format!(
                "circuit needs {} qubits but {} has {} sites",
                circuit.num_qubits(),
                machine.name,
                machine.num_sites()
            ));
        }
        Ok((compiler, circuit))
    }

    /// Resolve the circuit: parse + lower + peephole-optimize QASM, or
    /// generate the named workload (already optimized by the registry).
    pub fn resolve_circuit(&self) -> Result<Circuit, String> {
        match &self.source {
            SubmitSource::Qasm(text) => {
                let program = parallax_qasm::parse(text).map_err(|e| e.to_string())?;
                let raw = from_qasm(&program).map_err(|e| e.to_string())?;
                Ok(optimize(&raw))
            }
            SubmitSource::Workload(name) => parallax_workloads::benchmark(name)
                .map(|b| b.circuit(self.seed))
                .ok_or_else(|| format!("unknown workload '{name}'")),
        }
    }
}

/// Stable content hash of the exact circuit fed to the compiler: the
/// FNV-1a hash of its canonical QASM rendering. Whitespace and comment
/// differences in submitted text vanish during parsing, so equivalent
/// submissions share a hash.
pub fn circuit_content_hash(circuit: &Circuit) -> u64 {
    parallax_qasm::fnv1a_64(circuit.to_qasm().as_bytes())
}

/// Deterministic digest of the *full* schedule — gate order, per-layer
/// structure, every planned move, AOD selection, and home positions (by
/// f64 bit pattern). Two compilations agree on this digest iff they
/// produced bit-identical schedules, which lets a small response attest to
/// byte-identical compilation without shipping the whole movement plan.
pub fn schedule_digest(result: &CompilationResult) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(result.machine.fingerprint());
    h.write_f64(result.interaction_radius_um);
    h.write_usize(result.num_qubits);
    for p in &result.home_positions {
        h.write_f64(p.x).write_f64(p.y);
    }
    for q in &result.aod_selection.selected {
        h.write_u64(u64::from(*q));
    }
    h.write_usize(result.schedule.layers.len());
    for layer in &result.schedule.layers {
        h.write_usize(layer.gate_indices.len());
        for &g in &layer.gate_indices {
            h.write_usize(g);
        }
        h.write_usize(layer.moves.len());
        for m in &layer.moves {
            h.write_u64(u64::from(m.q)).write_f64(m.x).write_f64(m.y);
        }
        h.write_usize(layer.trap_changes);
        h.write_f64(layer.move_distance_um);
        h.write_f64(layer.return_distance_um);
    }
    h.finish()
}

/// The canonical compilation payload: every headline metric of the paper's
/// evaluation plus the schedule digest. Pure function of the
/// [`CompilationResult`], so a served response and a direct in-process
/// compile encode byte-identically.
pub fn compile_payload(result: &CompilationResult) -> Json {
    let stats = &result.schedule.stats;
    Json::obj(vec![
        ("qubits", Json::Int(result.num_qubits as u64)),
        ("cz", Json::Int(stats.cz_count as u64)),
        ("u3", Json::Int(stats.u3_count as u64)),
        ("swaps", Json::Int(stats.swap_count as u64)),
        ("layers", Json::Int(stats.layer_count as u64)),
        ("moves", Json::Int(stats.moves_planned as u64)),
        ("trap_changes", Json::Int(stats.trap_changes as u64)),
        ("radius_um", Json::Num(result.interaction_radius_um)),
        ("move_distance_um", Json::Num(stats.total_move_distance_um)),
        (
            "aod",
            Json::Arr(result.aod_selection.selected.iter().map(|&q| Json::Int(q as u64)).collect()),
        ),
        ("digest", Json::Str(format!("{:016x}", schedule_digest(result)))),
    ])
}

/// Encode a request as its wire line (inverse of [`parse_request`]).
pub fn encode_request(request: &Request) -> String {
    match request {
        Request::Stats => "{\"cmd\":\"stats\"}".to_string(),
        Request::Metrics => "{\"cmd\":\"metrics\"}".to_string(),
        Request::Trace { limit } => {
            Json::obj(vec![("cmd", Json::Str("trace".into())), ("limit", Json::Int(*limit as u64))])
                .encode()
        }
        Request::Ping => "{\"cmd\":\"ping\"}".to_string(),
        Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        Request::Drain => "{\"cmd\":\"drain\"}".to_string(),
        Request::Shards => "{\"cmd\":\"shards\"}".to_string(),
        Request::Cache(op) => match op {
            CacheOp::Flush => "{\"cmd\":\"cache\",\"op\":\"flush\"}".to_string(),
            CacheOp::Persist => "{\"cmd\":\"cache\",\"op\":\"persist\"}".to_string(),
            CacheOp::Resize { bytes } => {
                format!("{{\"cmd\":\"cache\",\"op\":\"resize\",\"bytes\":{bytes}}}")
            }
        },
        Request::Submit(s) => Json::obj(submit_pairs("submit", s)).encode(),
        Request::SubmitSweep(s) => {
            let mut pairs = submit_pairs("submit-sweep", &s.submit);
            let points = s
                .params
                .iter()
                .map(|point| Json::Arr(point.iter().map(|&x| Json::Num(x)).collect()))
                .collect();
            pairs.push(("params", Json::Arr(points)));
            Json::obj(pairs).encode()
        }
    }
}

fn submit_pairs<'a>(cmd: &'a str, s: &SubmitRequest) -> Vec<(&'a str, Json)> {
    let mut pairs = vec![("cmd", Json::Str(cmd.into()))];
    match &s.source {
        SubmitSource::Qasm(text) => pairs.push(("qasm", Json::Str(text.clone()))),
        SubmitSource::Workload(name) => pairs.push(("workload", Json::Str(name.clone()))),
    }
    pairs.push(("seed", Json::Int(s.seed)));
    pairs.push(("machine", Json::Str(s.machine.clone())));
    if let Some(dim) = s.aod_dim {
        pairs.push(("aod_dim", Json::Int(dim as u64)));
    }
    pairs.push(("quick", Json::Bool(s.quick)));
    pairs.push(("return_home", Json::Bool(s.return_home)));
    if s.scheduling == SchedulingMode::MultiMover {
        pairs.push(("scheduling", Json::Str("multi-mover".into())));
    }
    pairs.push(("priority", Json::Int(u64::from(s.priority))));
    if let Some(id) = s.id {
        pairs.push(("id", Json::Int(id)));
    }
    if let Some(trace) = &s.trace {
        pairs.push(("trace_id", Json::Str(trace.clone())));
    }
    pairs
}

impl Default for SubmitRequest {
    fn default() -> Self {
        Self {
            source: SubmitSource::Workload("QFT".into()),
            seed: 0,
            machine: "quera".into(),
            aod_dim: None,
            quick: false,
            return_home: true,
            scheduling: SchedulingMode::Single,
            priority: DEFAULT_PRIORITY,
            id: None,
            trace: None,
        }
    }
}

/// `{"ok":false,"error":...}` with the client-supplied id echoed when known.
pub fn error_response(message: &str, id: Option<u64>) -> String {
    let mut pairs = vec![("ok", Json::Bool(false)), ("error", Json::Str(message.to_string()))];
    if let Some(id) = id {
        pairs.push(("id", Json::Int(id)));
    }
    Json::obj(pairs).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(line: &str) -> SubmitRequest {
        match parse_request(line).unwrap() {
            Request::Submit(s) => *s,
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(parse_request("{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"cmd\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"cmd\":\"shutdown\"}").unwrap(), Request::Shutdown);
        assert!(parse_request("{\"cmd\":\"nope\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
    }

    #[test]
    fn parses_admin_commands() {
        assert_eq!(parse_request("{\"cmd\":\"drain\"}").unwrap(), Request::Drain);
        assert_eq!(parse_request("{\"cmd\":\"shards\"}").unwrap(), Request::Shards);
        assert_eq!(
            parse_request("{\"cmd\":\"cache\",\"op\":\"flush\"}").unwrap(),
            Request::Cache(CacheOp::Flush)
        );
        assert_eq!(
            parse_request("{\"cmd\":\"cache\",\"op\":\"persist\"}").unwrap(),
            Request::Cache(CacheOp::Persist)
        );
        assert_eq!(
            parse_request("{\"cmd\":\"cache\",\"op\":\"resize\",\"bytes\":4096}").unwrap(),
            Request::Cache(CacheOp::Resize { bytes: 4096 })
        );
        for bad in [
            "{\"cmd\":\"cache\"}",
            "{\"cmd\":\"cache\",\"op\":\"defrost\"}",
            "{\"cmd\":\"cache\",\"op\":\"resize\"}",
            "{\"cmd\":\"cache\",\"op\":\"resize\",\"bytes\":\"big\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn submit_defaults_and_overrides() {
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\"}");
        assert_eq!(s.source, SubmitSource::Workload("QFT".into()));
        assert_eq!(s.seed, 0);
        assert_eq!(s.machine, "quera");
        assert_eq!(s.priority, DEFAULT_PRIORITY);
        assert!(s.return_home);
        assert!(!s.quick);
        assert_eq!(s.scheduling, SchedulingMode::Single);
        assert!(s.id.is_none());

        let s = submit(
            "{\"cmd\":\"submit\",\"qasm\":\"OPENQASM 2.0;\",\"seed\":9,\"machine\":\"atom\",\
             \"quick\":true,\"return_home\":false,\"priority\":9,\"id\":3,\"aod_dim\":7}",
        );
        assert_eq!(s.source, SubmitSource::Qasm("OPENQASM 2.0;".into()));
        assert_eq!(s.seed, 9);
        assert_eq!(s.machine_spec().unwrap().name, "Atom-1225");
        assert_eq!(s.machine_spec().unwrap().aod_dim, 7);
        assert_eq!(s.priority, 9);
        assert_eq!(s.id, Some(3));
        assert!(!s.return_home && s.quick);
    }

    #[test]
    fn submit_validation_errors() {
        assert!(parse_request("{\"cmd\":\"submit\"}").is_err());
        assert!(parse_request("{\"cmd\":\"submit\",\"qasm\":\"x\",\"workload\":\"y\"}").is_err());
        assert!(parse_request("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"priority\":10}").is_err());
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"machine\":\"ibm\"}");
        assert!(s.machine_spec().is_err());
    }

    #[test]
    fn aod_dim_is_bounded_by_the_site_count() {
        let spec = |machine: &str, dim: u64| {
            submit(&format!(
                "{{\"cmd\":\"submit\",\"workload\":\"ADD\",\"machine\":\"{machine}\",\
                 \"aod_dim\":{dim}}}"
            ))
            .machine_spec()
        };
        assert!(spec("quera", 0).unwrap_err().contains("positive"));
        assert_eq!(spec("quera", 256).unwrap().aod_dim, 256);
        let err = spec("quera", 257).unwrap_err();
        assert!(err.contains("'aod_dim' 257 exceeds the 256 sites"), "{err}");
        assert_eq!(spec("atom", 1225).unwrap().aod_dim, 1225);
        assert!(spec("atom", 1226).is_err());
        // Large enough that building the array would abort on allocation.
        let err = spec("quera", 1 << 40).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn config_mirrors_request_knobs() {
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":4,\"quick\":true}");
        let cfg = s.compiler_config();
        assert_eq!(cfg.seed, 4);
        assert_eq!(cfg.placement.seed, 4);
        assert_eq!(cfg.placement.max_iter, PlacementConfig::quick(4).max_iter);
        let slow = submit("{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":4}");
        assert_eq!(slow.compiler_config().placement.max_iter, PlacementConfig::default().max_iter);
    }

    #[test]
    fn circuit_hash_ignores_formatting_noise() {
        let tidy = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
                    h q[0];\ncx q[0],q[1];\n";
        let noisy = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\nqreg q[2];\ncreg c[2];\n\
                     h  q[0] ;\ncx q[0] , q[1];\n";
        let c = |text: &str| {
            submit(
                &Json::obj(vec![
                    ("cmd", Json::Str("submit".into())),
                    ("qasm", Json::Str(text.into())),
                ])
                .encode(),
            )
            .resolve_circuit()
            .unwrap()
        };
        assert_eq!(circuit_content_hash(&c(tidy)), circuit_content_hash(&c(noisy)));
    }

    #[test]
    fn payload_and_digest_are_deterministic_and_discriminating() {
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":1,\"quick\":true}");
        let circuit = s.resolve_circuit().unwrap();
        let compiler = s.build_compiler().unwrap();
        let a = compiler.compile(&circuit);
        let b = compiler.compile(&circuit);
        assert_eq!(compile_payload(&a).encode(), compile_payload(&b).encode());
        assert_eq!(schedule_digest(&a), schedule_digest(&b));

        let other = submit("{\"cmd\":\"submit\",\"workload\":\"ADD\",\"seed\":2,\"quick\":true}");
        let c = other.build_compiler().unwrap().compile(&other.resolve_circuit().unwrap());
        assert_ne!(schedule_digest(&a), schedule_digest(&c), "seed must steer the digest");
    }

    #[test]
    fn encode_parse_round_trips_every_request() {
        let requests = vec![
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Trace { limit: 7 },
            Request::Shutdown,
            Request::Drain,
            Request::Shards,
            Request::Cache(CacheOp::Flush),
            Request::Cache(CacheOp::Persist),
            Request::Cache(CacheOp::Resize { bytes: 1 << 20 }),
            Request::Submit(Box::new(SubmitRequest {
                source: SubmitSource::Qasm("OPENQASM 2.0;\nqreg q[1];\n".into()),
                seed: 11,
                machine: "atom".into(),
                aod_dim: Some(12),
                quick: true,
                return_home: false,
                scheduling: SchedulingMode::Single,
                priority: 8,
                id: Some(42),
                trace: Some("corr-77af".into()),
            })),
            Request::Submit(Box::new(SubmitRequest {
                scheduling: SchedulingMode::MultiMover,
                ..Default::default()
            })),
            Request::Submit(Box::default()),
            Request::SubmitSweep(Box::new(SweepRequest {
                submit: SubmitRequest { seed: 7, id: Some(9), ..Default::default() },
                params: vec![vec![0.5, -1.25, 3.0], vec![0.0, 2.0, -0.75]],
            })),
        ];
        for r in requests {
            let line = encode_request(&r);
            assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
            assert_eq!(parse_request(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn sweep_parse_shares_submit_fields_and_validates_params() {
        let r = parse_request(
            "{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"seed\":4,\"quick\":true,\
             \"params\":[[0.1,0.2],[0.3,0.4]]}",
        )
        .unwrap();
        let Request::SubmitSweep(s) = r else { panic!("expected sweep") };
        assert_eq!(s.submit.source, SubmitSource::Workload("QAOA".into()));
        assert_eq!(s.submit.seed, 4);
        assert!(s.submit.quick);
        assert_eq!(s.params, vec![vec![0.1, 0.2], vec![0.3, 0.4]]);

        // Structured parse errors: missing, empty, and malformed params.
        for bad in [
            "{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\"}",
            "{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"params\":[]}",
            "{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"params\":[0.1]}",
            "{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"params\":[[\"x\"]]}",
            "{\"cmd\":\"submit-sweep\",\"params\":[[0.1]]}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }

        // Infinity parses (1e999 overflows to inf); the *server* refuses it
        // against the template, so the parse layer must stay permissive.
        let r =
            parse_request("{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"params\":[[1e999]]}")
                .unwrap();
        let Request::SubmitSweep(s) = r else { panic!("expected sweep") };
        assert!(s.params[0][0].is_infinite());
    }

    #[test]
    fn metrics_and_trace_commands_parse() {
        assert_eq!(parse_request("{\"cmd\":\"metrics\"}").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("{\"cmd\":\"trace\"}").unwrap(),
            Request::Trace { limit: DEFAULT_TRACE_LIMIT }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"trace\",\"limit\":9}").unwrap(),
            Request::Trace { limit: 9 }
        );
        assert!(parse_request("{\"cmd\":\"trace\",\"limit\":0}").is_err());
        assert!(parse_request("{\"cmd\":\"trace\",\"limit\":\"x\"}").is_err());
    }

    #[test]
    fn scheduling_field_parses_and_steers_config() {
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"scheduling\":\"single\"}");
        assert_eq!(s.scheduling, SchedulingMode::Single);
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"scheduling\":\"multi-mover\"}");
        assert_eq!(s.scheduling, SchedulingMode::MultiMover);
        assert_eq!(s.compiler_config().scheduling, SchedulingMode::MultiMover);
        assert!(parse_request("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"scheduling\":\"x\"}")
            .is_err());
        // Default-mode encodes omit the key: pre-ablation servers keep
        // accepting lines from new clients.
        assert!(!encode_request(&Request::Submit(Box::default())).contains("scheduling"));
    }

    #[test]
    fn trace_id_field_parses_and_defaults_off() {
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\"}");
        assert!(s.trace.is_none());
        let s = submit("{\"cmd\":\"submit\",\"workload\":\"QFT\",\"trace_id\":\"abc-123\"}");
        assert_eq!(s.trace.as_deref(), Some("abc-123"));
    }

    #[test]
    fn error_response_shape() {
        assert_eq!(error_response("boom", None), "{\"ok\":false,\"error\":\"boom\"}");
        assert_eq!(error_response("boom", Some(4)), "{\"ok\":false,\"error\":\"boom\",\"id\":4}");
    }
}
