//! The generic job manager behind the daemon: bounded concurrent
//! execution, durable per-job state directories, live event streams, and
//! crash-safe restart adoption.
//!
//! The manager knows nothing about what a job *does* — a [`JobBackend`]
//! validates submissions, executes jobs, and serves their artifacts. Each
//! job owns a directory under `<state>/jobs/<id>/` holding `job.json` (the
//! canonical validated spec, written before the submission is
//! acknowledged) and `outcome.json` (written atomically when the job
//! reaches a terminal state). A restarted manager re-adopts terminal jobs
//! as served results and re-queues jobs that never wrote an outcome — the
//! backend's own checkpointing (the fabric's shard stores) makes the
//! re-run a resume, not a restart.

use mbu_gefin::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Retained live events per job; older events are dropped from memory
/// (their sequence numbers stay burned).
const MAX_EVENTS: usize = 10_000;

/// A structured API error: HTTP status + message, rendered as
/// `{"error": …}` by the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl ApiError {
    /// 400.
    pub fn bad_request(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: msg.into(),
        }
    }

    /// 404.
    pub fn not_found(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            message: msg.into(),
        }
    }

    /// 409.
    pub fn conflict(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 409,
            message: msg.into(),
        }
    }

    /// 429.
    pub fn too_many(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 429,
            message: msg.into(),
        }
    }

    /// 500.
    pub fn internal(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: msg.into(),
        }
    }

    /// 503 — the service is up but refusing new work (draining).
    pub fn unavailable(msg: impl Into<String>) -> ApiError {
        ApiError {
            status: 503,
            message: msg.into(),
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a runner slot.
    Queued,
    /// Executing.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled (possibly with partial, resumable results).
    Cancelled,
}

impl JobState {
    /// Kebab-case label used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One live progress event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic per-job sequence number (1-based).
    pub seq: u64,
    /// Kebab-case event kind.
    pub kind: String,
    /// Structured payload.
    pub data: Json,
}

impl Event {
    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), Json::u64(self.seq)),
            ("kind".into(), Json::str(&self.kind)),
            ("data".into(), self.data.clone()),
        ])
    }
}

/// A validated submission: a display title plus the canonical (fully
/// resolved) spec that is persisted and later handed back to
/// [`JobBackend::execute`].
#[derive(Debug, Clone)]
pub struct Submission {
    /// Human-readable description of the job.
    pub title: String,
    /// The canonical spec (every knob resolved to an explicit value).
    pub spec: Json,
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Success, with a summary value.
    Done(Json),
    /// Cooperatively cancelled, with a summary of the partial results.
    Cancelled(Json),
    /// Failure, with an error message.
    Failed(String),
    /// Interrupted by a graceful drain: every in-flight unit persisted its
    /// shard rows, but the job is *not* finished. No `outcome.json` is
    /// written, so a restarted manager re-queues (resumes) the job with
    /// zero lost runs.
    Drained,
}

impl JobOutcome {
    fn state(&self) -> JobState {
        match self {
            JobOutcome::Done(_) => JobState::Done,
            JobOutcome::Cancelled(_) => JobState::Cancelled,
            JobOutcome::Failed(_) => JobState::Failed,
            // Drained jobs go back to the queue; they never reach the
            // terminal-outcome path.
            JobOutcome::Drained => JobState::Queued,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            JobOutcome::Done(v) => Json::Obj(vec![
                ("state".into(), Json::str("done")),
                ("summary".into(), v.clone()),
            ]),
            JobOutcome::Cancelled(v) => Json::Obj(vec![
                ("state".into(), Json::str("cancelled")),
                ("summary".into(), v.clone()),
            ]),
            JobOutcome::Failed(e) => Json::Obj(vec![
                ("state".into(), Json::str("failed")),
                ("error".into(), Json::str(e)),
            ]),
            JobOutcome::Drained => Json::Obj(vec![("state".into(), Json::str("drained"))]),
        }
    }

    fn from_json(v: &Json) -> Option<JobOutcome> {
        match v.get("state")?.as_str()? {
            "done" => Some(JobOutcome::Done(v.get("summary")?.clone())),
            "cancelled" => Some(JobOutcome::Cancelled(v.get("summary")?.clone())),
            "failed" => Some(JobOutcome::Failed(v.get("error")?.as_str()?.to_string())),
            _ => None,
        }
    }
}

/// A result artifact served over HTTP.
#[derive(Debug)]
pub struct Artifact {
    /// `Content-Type` of the body.
    pub content_type: String,
    /// The bytes.
    pub body: Vec<u8>,
}

/// What the manager delegates to the domain layer.
pub trait JobBackend: Send + Sync {
    /// Validates a submission body into a canonical [`Submission`].
    ///
    /// # Errors
    ///
    /// [`ApiError`] (typically 400) describing the defect.
    fn validate(&self, body: &Json) -> Result<Submission, ApiError>;

    /// Runs the job to completion (or cooperative cancellation). The
    /// job's directory, spec, cancellation token and event sink are on
    /// the context.
    fn execute(&self, ctx: &JobContext) -> JobOutcome;

    /// Serves a result artifact for a finished job; `tail` is the path
    /// below `/sweeps/{id}/` (e.g. `["store"]`, `["figures", "3"]`).
    ///
    /// # Errors
    ///
    /// [`ApiError`] for unknown artifacts or rendering failures.
    fn artifact(
        &self,
        ctx: &JobContext,
        tail: &[&str],
        query: &[(String, String)],
    ) -> Result<Artifact, ApiError>;
}

struct JobRecord {
    title: String,
    spec: Json,
    dir: PathBuf,
    state: JobState,
    events: VecDeque<Event>,
    next_seq: u64,
    progress: Option<(usize, usize)>,
    cancel: Arc<AtomicBool>,
    outcome: Option<JobOutcome>,
}

impl JobRecord {
    fn status_json(&self, id: &str) -> Json {
        let mut fields = vec![
            ("id".into(), Json::str(id)),
            ("title".into(), Json::str(&self.title)),
            ("state".into(), Json::str(self.state.as_str())),
            ("spec".into(), self.spec.clone()),
            ("events".into(), Json::u64(self.next_seq)),
        ];
        if let Some((done, total)) = self.progress {
            fields.push((
                "progress".into(),
                Json::Obj(vec![
                    ("done".into(), Json::usize(done)),
                    ("total".into(), Json::usize(total)),
                ]),
            ));
        }
        if let Some(outcome) = &self.outcome {
            fields.push(("outcome".into(), outcome.to_json()));
        }
        Json::Obj(fields)
    }
}

struct Inner {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    running: usize,
    next_id: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Graceful-drain latch: set once, never cleared in-process. While
    /// set, submissions are refused (503), queued jobs stay queued, and
    /// running jobs are asked to stop at the next unit boundary.
    drain: AtomicBool,
}

/// Execution context handed to [`JobBackend::execute`] and
/// [`JobBackend::artifact`].
#[derive(Clone)]
pub struct JobContext {
    /// The job id (`j0001`, …).
    pub id: String,
    /// The job's private state directory.
    pub dir: PathBuf,
    /// The canonical validated spec.
    pub spec: Json,
    cancel: Arc<AtomicBool>,
    shared: Arc<Shared>,
}

impl JobContext {
    /// Whether cancellation was requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Whether the manager is draining: the job should stop at the next
    /// clean checkpoint and return [`JobOutcome::Drained`].
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst)
    }

    /// Appends a live event to the job's stream and wakes event waiters.
    pub fn emit(&self, kind: &str, data: Json) {
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        if let Some(job) = inner.jobs.get_mut(&self.id) {
            push_event(job, kind, data);
        }
        self.shared.cond.notify_all();
    }

    /// Updates the job's `done/total` progress counters.
    pub fn set_progress(&self, done: usize, total: usize) {
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        if let Some(job) = inner.jobs.get_mut(&self.id) {
            job.progress = Some((done, total));
        }
        self.shared.cond.notify_all();
    }
}

fn push_event(job: &mut JobRecord, kind: &str, data: Json) {
    job.next_seq += 1;
    job.events.push_back(Event {
        seq: job.next_seq,
        kind: kind.to_string(),
        data,
    });
    while job.events.len() > MAX_EVENTS {
        job.events.pop_front();
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The job manager: submission, bounded concurrent execution, events,
/// cancellation, restart adoption.
pub struct JobManager {
    dir: PathBuf,
    backend: Arc<dyn JobBackend>,
    max_jobs: usize,
    queue_limit: usize,
    shared: Arc<Shared>,
}

impl JobManager {
    /// Opens (or creates) the state directory, re-adopts every persisted
    /// job — terminal jobs serve their results, interrupted jobs are
    /// re-queued — and starts runners.
    ///
    /// # Errors
    ///
    /// State-directory I/O failures.
    pub fn new(
        dir: &Path,
        backend: Arc<dyn JobBackend>,
        max_jobs: usize,
        queue_limit: usize,
    ) -> std::io::Result<Arc<JobManager>> {
        let jobs_dir = dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let mut inner = Inner {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            running: 0,
            next_id: 1,
        };
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&jobs_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for job_dir in entries {
            let Some(id) = job_dir
                .file_name()
                .and_then(|n| n.to_str())
                .map(String::from)
            else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(job_dir.join("job.json")) else {
                continue;
            };
            let Ok(meta) = Json::parse(&text) else {
                continue;
            };
            let title = meta
                .get("title")
                .and_then(|t| t.as_str())
                .unwrap_or("untitled")
                .to_string();
            let spec = meta.get("spec").cloned().unwrap_or(Json::Null);
            let outcome = std::fs::read_to_string(job_dir.join("outcome.json"))
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|v| JobOutcome::from_json(&v));
            if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
                inner.next_id = inner.next_id.max(n + 1);
            }
            let mut job = JobRecord {
                title,
                spec,
                dir: job_dir,
                state: JobState::Queued,
                events: VecDeque::new(),
                next_seq: 0,
                progress: None,
                cancel: Arc::new(AtomicBool::new(false)),
                outcome: None,
            };
            match outcome {
                Some(outcome) => {
                    // Finished before the restart: serve its results.
                    job.state = outcome.state();
                    job.outcome = Some(outcome);
                }
                None => {
                    // Interrupted mid-flight: re-queue. The backend's own
                    // checkpointing turns the re-run into a resume.
                    push_event(&mut job, "resumed", Json::Null);
                    inner.queue.push_back(id.clone());
                }
            }
            inner.jobs.insert(id, job);
        }
        let mgr = Arc::new(JobManager {
            dir: dir.to_path_buf(),
            backend,
            max_jobs,
            queue_limit,
            shared: Arc::new(Shared {
                inner: Mutex::new(inner),
                cond: Condvar::new(),
                drain: AtomicBool::new(false),
            }),
        });
        mgr.pump();
        Ok(mgr)
    }

    fn context(&self, id: &str, job: &JobRecord) -> JobContext {
        JobContext {
            id: id.to_string(),
            dir: job.dir.clone(),
            spec: job.spec.clone(),
            cancel: Arc::clone(&job.cancel),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Starts queued jobs while runner slots are free.
    fn pump(self: &Arc<Self>) {
        if self.draining() {
            // Queued jobs stay queued; a restarted manager picks them up.
            return;
        }
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        while inner.running < self.max_jobs {
            let Some(id) = inner.queue.pop_front() else {
                break;
            };
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            job.state = JobState::Running;
            push_event(job, "state", Json::str("running"));
            let ctx = self.context(&id, job);
            inner.running += 1;
            self.shared.cond.notify_all();
            let mgr = Arc::clone(self);
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mgr.backend.execute(&ctx)
                }))
                .unwrap_or_else(|_| JobOutcome::Failed("job panicked".into()));
                mgr.complete(&id, outcome);
            });
        }
    }

    /// Records a terminal outcome (durably, then in memory) and frees the
    /// runner slot.
    fn complete(self: &Arc<Self>, id: &str, outcome: JobOutcome) {
        if matches!(outcome, JobOutcome::Drained) {
            // Not terminal: no outcome.json, so both this process and a
            // restarted one see the job as interrupted-and-resumable.
            self.park_drained(id);
            return;
        }
        let dir = {
            let inner = self.shared.inner.lock().expect("jobs lock");
            inner.jobs.get(id).map(|j| j.dir.clone())
        };
        if let Some(dir) = dir {
            // Durable before visible: a crash between these writes leaves
            // no outcome.json, so a restart re-queues (resumes) the job.
            let _ = write_atomic(
                &dir.join("outcome.json"),
                outcome.to_json().encode().as_bytes(),
            );
        }
        {
            let mut inner = self.shared.inner.lock().expect("jobs lock");
            // A queued job cancelled before start never held a runner slot.
            let was_running = inner
                .jobs
                .get(id)
                .is_some_and(|j| j.state == JobState::Running);
            if was_running {
                inner.running = inner.running.saturating_sub(1);
            }
            if let Some(job) = inner.jobs.get_mut(id) {
                job.state = outcome.state();
                push_event(job, "state", Json::str(outcome.state().as_str()));
                job.outcome = Some(outcome);
            }
            self.shared.cond.notify_all();
        }
        self.pump();
    }

    /// Parks a drained job: frees the runner slot, re-queues the job in
    /// memory, and wakes [`JobManager::await_drained`] waiters. Nothing is
    /// written — the absence of `outcome.json` is the durable record.
    fn park_drained(self: &Arc<Self>, id: &str) {
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        let was_running = inner
            .jobs
            .get(id)
            .is_some_and(|j| j.state == JobState::Running);
        if was_running {
            inner.running = inner.running.saturating_sub(1);
        }
        if let Some(job) = inner.jobs.get_mut(id) {
            job.state = JobState::Queued;
            push_event(job, "drained", Json::Null);
        }
        inner.queue.push_front(id.to_string());
        self.shared.cond.notify_all();
    }

    /// Begins a graceful drain: refuses new submissions (503), stops
    /// starting queued jobs, and asks running jobs to stop at their next
    /// clean checkpoint. Irreversible for this process — the intent is to
    /// exit and restart.
    pub fn begin_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
    }

    /// Whether [`JobManager::begin_drain`] was called.
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst)
    }

    /// Blocks until every running job has parked or finished, or until
    /// `timeout` passes; returns whether the drain completed in time.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        while inner.running > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(inner, deadline - now)
                .expect("jobs lock");
            inner = guard;
        }
        true
    }

    /// `(running, queued)` job counts, for health reporting.
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.shared.inner.lock().expect("jobs lock");
        (inner.running, inner.queue.len())
    }

    /// Validates and enqueues a submission, returning the new job id.
    ///
    /// # Errors
    ///
    /// 400 from the backend's validation; 429 when the queue is full; 503
    /// while the manager is draining.
    pub fn submit(self: &Arc<Self>, body: &Json) -> Result<String, ApiError> {
        if self.draining() {
            return Err(ApiError::unavailable(
                "draining: not accepting new sweeps; retry after restart",
            ));
        }
        let submission = self.backend.validate(body)?;
        let (id, dir, meta) = {
            let mut inner = self.shared.inner.lock().expect("jobs lock");
            if inner.running >= self.max_jobs && inner.queue.len() >= self.queue_limit {
                return Err(ApiError::too_many(format!(
                    "queue full: {} running, {} queued",
                    inner.running,
                    inner.queue.len()
                )));
            }
            let id = format!("j{:04}", inner.next_id);
            inner.next_id += 1;
            let dir = self.dir.join("jobs").join(&id);
            let meta = Json::Obj(vec![
                ("title".into(), Json::str(&submission.title)),
                ("spec".into(), submission.spec.clone()),
            ]);
            let mut job = JobRecord {
                title: submission.title.clone(),
                spec: submission.spec.clone(),
                dir: dir.clone(),
                state: JobState::Queued,
                events: VecDeque::new(),
                next_seq: 0,
                progress: None,
                cancel: Arc::new(AtomicBool::new(false)),
                outcome: None,
            };
            push_event(&mut job, "submitted", Json::str(&submission.title));
            inner.jobs.insert(id.clone(), job);
            inner.queue.push_back(id.clone());
            (id, dir, meta)
        };
        // Persist the canonical spec before acknowledging: a daemon crash
        // right after the 201 must still know about the job.
        std::fs::create_dir_all(&dir)
            .and_then(|()| write_atomic(&dir.join("job.json"), meta.encode().as_bytes()))
            .map_err(|e| {
                let mut inner = self.shared.inner.lock().expect("jobs lock");
                inner.jobs.remove(&id);
                inner.queue.retain(|q| q != &id);
                ApiError::internal(format!("could not persist job: {e}"))
            })?;
        self.pump();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs drain cooperatively (the fabric finishes in-flight units and
    /// merges partial results).
    ///
    /// # Errors
    ///
    /// 404 for unknown ids, 409 for already-terminal jobs.
    pub fn cancel(self: &Arc<Self>, id: &str) -> Result<JobState, ApiError> {
        let queued_outcome = {
            let mut inner = self.shared.inner.lock().expect("jobs lock");
            let job = inner
                .jobs
                .get_mut(id)
                .ok_or_else(|| ApiError::not_found(format!("no job `{id}`")))?;
            if job.state.is_terminal() {
                return Err(ApiError::conflict(format!(
                    "job `{id}` already {}",
                    job.state.as_str()
                )));
            }
            job.cancel.store(true, Ordering::Relaxed);
            push_event(job, "cancel-requested", Json::Null);
            if job.state == JobState::Queued {
                inner.queue.retain(|q| q != id);
                true
            } else {
                false
            }
        };
        if queued_outcome {
            self.complete(
                id,
                JobOutcome::Cancelled(Json::Obj(vec![(
                    "note".into(),
                    Json::str("cancelled before start"),
                )])),
            );
            Ok(JobState::Cancelled)
        } else {
            self.shared.cond.notify_all();
            Ok(JobState::Running)
        }
    }

    /// The job's status document.
    ///
    /// # Errors
    ///
    /// 404 for unknown ids.
    pub fn status(&self, id: &str) -> Result<Json, ApiError> {
        let inner = self.shared.inner.lock().expect("jobs lock");
        inner
            .jobs
            .get(id)
            .map(|j| j.status_json(id))
            .ok_or_else(|| ApiError::not_found(format!("no job `{id}`")))
    }

    /// All jobs, id-ordered.
    pub fn list(&self) -> Json {
        let inner = self.shared.inner.lock().expect("jobs lock");
        let jobs = inner
            .jobs
            .iter()
            .map(|(id, j)| {
                Json::Obj(vec![
                    ("id".into(), Json::str(id)),
                    ("title".into(), Json::str(&j.title)),
                    ("state".into(), Json::str(j.state.as_str())),
                ])
            })
            .collect();
        Json::Obj(vec![("jobs".into(), Json::Arr(jobs))])
    }

    /// Events with `seq > after`, blocking up to `timeout` for new ones.
    /// Returns `(events, terminal)`; an empty batch with `terminal ==
    /// true` means the stream is finished.
    ///
    /// # Errors
    ///
    /// 404 for unknown ids.
    pub fn events_after(
        &self,
        id: &str,
        after: u64,
        timeout: Duration,
    ) -> Result<(Vec<Event>, bool), ApiError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().expect("jobs lock");
        loop {
            let job = inner
                .jobs
                .get(id)
                .ok_or_else(|| ApiError::not_found(format!("no job `{id}`")))?;
            let fresh: Vec<Event> = job
                .events
                .iter()
                .filter(|e| e.seq > after)
                .cloned()
                .collect();
            let terminal = job.state.is_terminal();
            if !fresh.is_empty() || terminal {
                return Ok((fresh, terminal));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok((Vec::new(), false));
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(inner, deadline - now)
                .expect("jobs lock");
            inner = guard;
        }
    }

    /// Serves an artifact of a *finished* job via the backend.
    ///
    /// # Errors
    ///
    /// 404 for unknown ids, 409 while the job is still queued or running,
    /// plus whatever the backend reports.
    pub fn artifact(
        &self,
        id: &str,
        tail: &[&str],
        query: &[(String, String)],
    ) -> Result<Artifact, ApiError> {
        let ctx = {
            let inner = self.shared.inner.lock().expect("jobs lock");
            let job = inner
                .jobs
                .get(id)
                .ok_or_else(|| ApiError::not_found(format!("no job `{id}`")))?;
            if !job.state.is_terminal() {
                return Err(ApiError::conflict(format!(
                    "job `{id}` is still {}; results are served once it finishes",
                    job.state.as_str()
                )));
            }
            self.context(id, job)
        };
        self.backend.artifact(&ctx, tail, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that echoes its spec and waits for cancellation when the
    /// spec says `{"hang": true}`.
    struct EchoBackend;

    impl JobBackend for EchoBackend {
        fn validate(&self, body: &Json) -> Result<Submission, ApiError> {
            if body.get("bad").is_some() {
                return Err(ApiError::bad_request("bad field"));
            }
            Ok(Submission {
                title: "echo".into(),
                spec: body.clone(),
            })
        }

        fn execute(&self, ctx: &JobContext) -> JobOutcome {
            ctx.emit("working", Json::Null);
            if ctx.spec.get("hang").and_then(Json::as_bool) == Some(true) {
                loop {
                    if ctx.cancelled() {
                        return JobOutcome::Cancelled(Json::Null);
                    }
                    if ctx.draining() {
                        return JobOutcome::Drained;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            if ctx.spec.get("panic").is_some() {
                panic!("boom");
            }
            JobOutcome::Done(ctx.spec.clone())
        }

        fn artifact(
            &self,
            ctx: &JobContext,
            tail: &[&str],
            _query: &[(String, String)],
        ) -> Result<Artifact, ApiError> {
            match tail {
                ["spec"] => Ok(Artifact {
                    content_type: "application/json".into(),
                    body: ctx.spec.encode().into_bytes(),
                }),
                _ => Err(ApiError::not_found("no such artifact")),
            }
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbu-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_terminal(mgr: &Arc<JobManager>, id: &str) -> Json {
        for _ in 0..500 {
            let s = mgr.status(id).unwrap();
            if s.get("outcome").is_some() {
                return s;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn submit_execute_and_fetch_artifact() {
        let dir = tmpdir("basic");
        let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
        let body = Json::Obj(vec![("x".into(), Json::u64(7))]);
        let id = mgr.submit(&body).unwrap();
        assert_eq!(id, "j0001");
        let status = wait_terminal(&mgr, &id);
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        let art = mgr.artifact(&id, &["spec"], &[]).unwrap();
        assert_eq!(art.body, body.encode().into_bytes());
        let (events, terminal) = mgr.events_after(&id, 0, Duration::from_millis(10)).unwrap();
        assert!(terminal);
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["submitted", "state", "working", "state"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_queue_and_cancel_errors() {
        let dir = tmpdir("errors");
        let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 1, 1).unwrap();
        let bad = mgr.submit(&Json::Obj(vec![("bad".into(), Json::Null)]));
        assert_eq!(bad.unwrap_err().status, 400);
        let hang = Json::Obj(vec![("hang".into(), Json::Bool(true))]);
        let running = mgr.submit(&hang).unwrap();
        let queued = mgr.submit(&hang).unwrap();
        let full = mgr.submit(&hang);
        assert_eq!(full.unwrap_err().status, 429);
        assert_eq!(mgr.cancel("j9999").unwrap_err().status, 404);
        // Results are 409 while running.
        assert_eq!(
            mgr.artifact(&running, &["spec"], &[]).unwrap_err().status,
            409
        );
        // Queued cancels immediately; running drains cooperatively.
        mgr.cancel(&queued).unwrap();
        assert_eq!(
            wait_terminal(&mgr, &queued).get("state").unwrap().as_str(),
            Some("cancelled")
        );
        mgr.cancel(&running).unwrap();
        assert_eq!(
            wait_terminal(&mgr, &running).get("state").unwrap().as_str(),
            Some("cancelled")
        );
        assert_eq!(mgr.cancel(&running).unwrap_err().status, 409);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_fails_cleanly() {
        let dir = tmpdir("panic");
        let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 1, 4).unwrap();
        let id = mgr
            .submit(&Json::Obj(vec![("panic".into(), Json::Bool(true))]))
            .unwrap();
        let status = wait_terminal(&mgr, &id);
        assert_eq!(status.get("state").unwrap().as_str(), Some("failed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_parks_running_jobs_and_refuses_new_work() {
        let dir = tmpdir("drain");
        let hang = Json::Obj(vec![("hang".into(), Json::Bool(true))]);
        let (running, queued);
        {
            let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 1, 4).unwrap();
            running = mgr.submit(&hang).unwrap();
            queued = mgr.submit(&hang).unwrap();
            for _ in 0..500 {
                let s = mgr.status(&running).unwrap();
                if s.get("state").unwrap().as_str() == Some("running") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            mgr.begin_drain();
            assert!(mgr.draining());
            // Admission is refused with a typed 503.
            assert_eq!(mgr.submit(&hang).unwrap_err().status, 503);
            // The running job parks within the timeout…
            assert!(mgr.await_drained(Duration::from_secs(30)));
            // …back to queued, with a drained event and no outcome.json.
            let s = mgr.status(&running).unwrap();
            assert_eq!(s.get("state").unwrap().as_str(), Some("queued"));
            assert!(s.get("outcome").is_none());
            let (events, _) = mgr.events_after(&running, 0, Duration::ZERO).unwrap();
            assert!(events.iter().any(|e| e.kind == "drained"));
            assert!(!dir
                .join("jobs")
                .join(&running)
                .join("outcome.json")
                .exists());
            assert!(!dir.join("jobs").join(&queued).join("outcome.json").exists());
            // The queued job never started.
            let s = mgr.status(&queued).unwrap();
            assert_eq!(s.get("state").unwrap().as_str(), Some("queued"));
        }
        // A restarted manager re-adopts both jobs as resumable work.
        let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 1, 4).unwrap();
        for id in [&running, &queued] {
            let (events, _) = mgr.events_after(id, 0, Duration::ZERO).unwrap();
            assert!(events.iter().any(|e| e.kind == "resumed"), "{id}");
            mgr.cancel(id).unwrap();
            assert_eq!(
                wait_terminal(&mgr, id).get("state").unwrap().as_str(),
                Some("cancelled")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_adopts_finished_and_requeues_interrupted_jobs() {
        let dir = tmpdir("restart");
        let finished_id;
        {
            let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
            finished_id = mgr
                .submit(&Json::Obj(vec![("x".into(), Json::u64(1))]))
                .unwrap();
            wait_terminal(&mgr, &finished_id);
        }
        // Simulate a job that died mid-flight: job.json without outcome.
        let crashed = dir.join("jobs").join("j0002");
        std::fs::create_dir_all(&crashed).unwrap();
        std::fs::write(
            crashed.join("job.json"),
            Json::Obj(vec![
                ("title".into(), Json::str("echo")),
                ("spec".into(), Json::Obj(vec![("y".into(), Json::u64(2))])),
            ])
            .encode(),
        )
        .unwrap();
        let mgr = JobManager::new(&dir, Arc::new(EchoBackend), 2, 4).unwrap();
        // The finished job still serves its artifact…
        let art = mgr.artifact(&finished_id, &["spec"], &[]).unwrap();
        assert_eq!(art.body, b"{\"x\":1}");
        // …the interrupted one re-ran to completion…
        let status = wait_terminal(&mgr, "j0002");
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        // …and new ids continue after the adopted ones.
        let next = mgr.submit(&Json::Obj(vec![])).unwrap();
        assert_eq!(next, "j0003");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
