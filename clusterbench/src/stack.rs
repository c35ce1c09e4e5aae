//! The serving stack as a user runs it: an in-process `cluster_serve`
//! behind `serve_poll` on loopback TCP, and one `ServeClient`
//! connection that speaks v2 and never retries (so every failure is
//! counted, not hidden).

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cluster_serve::{serve_poll, ClientConfig, ResultStore, ServeClient, ServeOptions, ServeState};
use coherence::config::CacheSpec;
use simcore::Json;
use splash::ProblemSize;

/// A problem size on a machine size: the scope of a store key.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Problem size.
    pub size: ProblemSize,
    /// Simulated processors.
    pub procs: usize,
}

impl Shape {
    /// Table 2 sizes on the paper's 64-processor machine.
    pub const PAPER: Shape = Shape {
        size: ProblemSize::Paper,
        procs: 64,
    };
    /// The reduced sizes on 16 processors.
    pub const SMALL: Shape = Shape {
        size: ProblemSize::Small,
        procs: 16,
    };

    /// Label the wire protocol and the store use for the size.
    pub fn label(self) -> &'static str {
        cluster_serve::store::size_label(self.size)
    }

    /// Generates `app`'s trace.
    pub fn trace(self, app: &str) -> simcore::ops::Trace {
        cluster_study::apps::trace_for(app, self.size, self.procs)
    }
}

/// One study cell: an application replayed on one machine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Application name.
    pub app: &'static str,
    /// Cache per processor.
    pub cache: CacheSpec,
    /// Processors per cluster.
    pub cluster: u32,
}

impl Cell {
    /// `app/cache/cluster`, unique within one problem size.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.app, self.cache.label(), self.cluster)
    }

    /// The `run` spec asking for exactly this cell.
    pub fn spec(&self, shape: Shape) -> Json {
        Json::obj()
            .with("app", self.app)
            .with("size", shape.label())
            .with("procs", shape.procs)
            .with("caches", Json::Arr(vec![Json::from(self.cache.label())]))
            .with("clusters", Json::Arr(vec![Json::from(self.cluster)]))
    }
}

/// The `run` spec asking for an application's whole 16-cell matrix.
pub fn app_spec(app: &str, shape: Shape) -> Json {
    let caches = cluster_study::study::section5_caches()
        .iter()
        .map(|c| Json::from(c.label()))
        .collect();
    let clusters = cluster_study::study::CLUSTER_SIZES
        .iter()
        .map(|&k| Json::from(k))
        .collect();
    Json::obj()
        .with("app", app)
        .with("size", shape.label())
        .with("procs", shape.procs)
        .with("caches", Json::Arr(caches))
        .with("clusters", Json::Arr(clusters))
}

/// The Section 5 matrix of `app` in canonical (cache, cluster) order.
pub fn matrix(app: &'static str) -> Vec<Cell> {
    cluster_study::study::section5_caches()
        .into_iter()
        .flat_map(|cache| {
            cluster_study::study::CLUSTER_SIZES
                .iter()
                .map(move |&cluster| Cell {
                    app,
                    cache,
                    cluster,
                })
        })
        .collect()
}

/// A running server and the thread that runs its event loop.
pub struct Server {
    /// `host:port` the loop listens on.
    pub addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Opens the store in `dir` and starts a server on it.
    pub fn start(dir: &Path) -> Result<Server, String> {
        let store = ResultStore::open(dir).map_err(|e| format!("opening store: {e}"))?;
        Server::start_on(store)
    }

    /// Starts a server on an already opened store, with one simulation
    /// job per request so measured work stays serial.
    pub fn start_on(store: ResultStore) -> Result<Server, String> {
        let opts = ServeOptions {
            jobs: 1,
            ..ServeOptions::default()
        };
        let state = Arc::new(ServeState::new(store, opts));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = std::thread::Builder::new()
            .name("serve-poll".into())
            .spawn(move || serve_poll(&state, listener))
            .map_err(|e| format!("spawning the event loop: {e}"))?;
        Ok(Server {
            addr,
            handle: Some(handle),
        })
    }

    /// Opens the benchmark's one client connection, negotiated to v2.
    pub fn connect(&self) -> Result<ServeClient, String> {
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(60)),
            retries: 0,
            ..ClientConfig::default()
        };
        let mut client =
            ServeClient::connect_with(&self.addr, config).map_err(|e| format!("connect: {e}"))?;
        client.hello_v2().map_err(|e| format!("hello: {e}"))?;
        Ok(client)
    }

    /// Asks the loop to shut down and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let asked = ServeClient::connect_with(
            &self.addr,
            ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
        )
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"));
        if asked.is_err() && !handle.is_finished() {
            // The loop did not take the request; joining would hang.
            return asked;
        }
        let joined = match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("event loop: {e}")),
            Err(_) => Err("event loop panicked".to_string()),
        };
        asked.and(joined)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Brings the stack up on an empty store and back down: open the
/// store, start the loop, connect and negotiate v2. Returns the
/// seconds until the connection was ready.
pub fn bring_up(dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = Server::start(dir)?;
    let client = server.connect()?;
    let ready = t0.elapsed().as_secs_f64();
    drop(client);
    server.stop()?;
    Ok(ready)
}

/// One client request and how long it took, as the client saw it.
pub struct Timed {
    /// Milliseconds from send to parsed reply.
    pub ms: f64,
    /// The reply, or why the request failed.
    pub reply: Result<Json, String>,
}

/// Sends one `run` request and times it.
pub fn timed_run(client: &mut ServeClient, spec: Json) -> Timed {
    let t0 = Instant::now();
    let reply = client.run(spec).map_err(|e| e.to_string());
    Timed {
        ms: crate::util::ms(t0.elapsed()),
        reply,
    }
}

/// The `stats` object of each cell in a `run` reply, in reply order.
pub fn reply_cells(reply: &Json) -> Result<Vec<String>, String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("reply not ok: {reply}"));
    }
    let cells = reply
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("reply has no cells: {reply}"))?;
    cells
        .iter()
        .map(|c| {
            c.get("stats")
                .map(|s| s.to_string())
                .ok_or_else(|| format!("cell has no stats: {c}"))
        })
        .collect()
}
