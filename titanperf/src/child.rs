//! Child processes: one-shot `titanc` runs timed spawn-to-exit with their
//! peak memory, through a small spawner process; and the `titand` daemon
//! behind a kill-on-drop guard.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs of
// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child`; returns its exit code (`None` when a signal ended it)
/// and its peak resident set size in KiB. The standard library's `wait`
/// drops the resource usage the kernel hands back, so this calls `wait4`.
fn reap(child: Child) -> io::Result<(Option<i32>, i64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the
    // two pointers, which point at live, correctly sized locals (`Rusage`
    // mirrors the 144-byte 64-bit Linux layout). The pid is a child this
    // process spawned and has not waited for: `child` is consumed here and
    // `Child` has no `Drop` that waits.
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if pid < 0 {
        return Err(io::Error::last_os_error());
    }
    let exited = status & 0x7f == 0;
    Ok((exited.then_some((status >> 8) & 0xff), usage.maxrss))
}

/// Separates the fields of a spawner request line.
const FIELD: char = '\x1f';

/// The hidden `titanperf spawner` mode: reads one request per line from
/// stdin (`cwd`, stdout file, stderr file, program, arguments…), runs it to
/// completion and answers `code wall_ns maxrss_kib` (code −1 for a signal).
///
/// It exists because a child's `ru_maxrss` starts at the peak RSS of the
/// process that spawned it (the kernel carries it across `exec`): spawned
/// from the driver, every `titanc` would read as the driver's own 25 MB.
/// This process is started before the driver has allocated anything and
/// stays at about 1.5 MB, below any `titanc` run. The clock runs here too,
/// from just before spawn to just after the child is reaped.
pub fn spawner_main() -> io::Result<()> {
    let mut replies = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let line = line?;
        let mut fields = line.split(FIELD);
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| io::Error::other("short request"))
        };
        let (cwd, out, err, program) = (next()?, next()?, next()?, next()?);
        let mut cmd = Command::new(program);
        cmd.args(fields)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(File::create(out)?)
            .stderr(File::create(err)?);
        let start = Instant::now();
        let (code, maxrss_kib) = reap(cmd.spawn()?)?;
        let wall_ns = start.elapsed().as_nanos();
        writeln!(replies, "{} {wall_ns} {maxrss_kib}", code.unwrap_or(-1))?;
        replies.flush()?;
    }
    Ok(())
}

/// A finished one-shot run.
pub struct Finished {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Wall time from just before spawn to just after the child is reaped.
    pub wall: Duration,
    /// Peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

/// The driver's end of a running [`spawner_main`].
pub struct Spawner {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts `titanperf spawner`. Call it before the driver grows.
    pub fn start(titanperf: &Path) -> io::Result<Spawner> {
        let mut child = Command::new(titanperf)
            .arg("spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Spawner {
            requests: child.stdin.take(),
            replies: BufReader::new(child.stdout.take().expect("stdout was piped")),
            child,
        })
    }

    /// Runs `cmd` (its program, arguments and working directory) to
    /// completion with stdout and stderr sent to two files under `scratch`,
    /// read back after the clock has stopped: the child never waits for
    /// anyone to drain a pipe, and nothing here needs a thread.
    pub fn run(&mut self, cmd: &Command, scratch: &Path) -> io::Result<Finished> {
        let out_path = scratch.join("stdout.txt");
        let err_path = scratch.join("stderr.txt");
        let cwd = cmd.get_current_dir().unwrap_or(Path::new("."));
        let mut request = String::new();
        for field in [cwd.as_os_str(), out_path.as_os_str(), err_path.as_os_str()]
            .into_iter()
            .chain([cmd.get_program()])
            .chain(cmd.get_args())
        {
            let field = field
                .to_str()
                .ok_or_else(|| io::Error::other("non-UTF-8 argument"))?;
            request.push_str(field);
            request.push(FIELD);
        }
        request.pop();
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "{request}")?;
        requests.flush()?;

        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        let numbers: Vec<i128> = reply.split_whitespace().flat_map(str::parse).collect();
        let &[code, wall_ns, maxrss_kib] = numbers.as_slice() else {
            return Err(io::Error::other(format!("spawner failed on {cmd:?}")));
        };
        Ok(Finished {
            code: (code >= 0).then_some(code as i32),
            stdout: std::fs::read(&out_path)?,
            stderr: String::from_utf8_lossy(&std::fs::read(&err_path)?).into_owned(),
            wall: Duration::from_nanos(wall_ns as u64),
            peak_rss_mb: maxrss_kib as f64 / 1024.0,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // end of input ends the spawner
        self.requests = None;
        let _ = self.child.wait();
    }
}

/// A running `titand --socket S -j 2 --quiet` (no `--cache-dir`: purely
/// resident). Dropping it without [`Daemon::shutdown`] kills the process,
/// so a failing driver leaves nothing behind.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    // held open so the daemon's closing `totals:` line has somewhere to go
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Starts the daemon and waits for its `listening on` line, which it
    /// prints only after the socket is bound.
    pub fn start(titand: &Path, socket: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(titand)
            .args(["--socket"])
            .arg(socket)
            .args(["-j", "2", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut ready = String::new();
        let read = stderr.read_line(&mut ready);
        // from here on a failure drops `daemon`, which kills the child
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            _stderr: stderr,
        };
        read?;
        if !ready.contains("listening on") {
            return Err(io::Error::other(format!(
                "titand did not come up: {}",
                ready.trim_end()
            )));
        }
        Ok(daemon)
    }

    /// A new persistent client connection.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = UnixStream::connect(&self.socket)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// The daemon's peak resident set size so far, in MiB: `VmHWM` of
    /// `/proc/<pid>/status`, which belongs to the daemon's own image.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self.child.as_ref().expect("running until shutdown").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
            .map(|kib: f64| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `{"shutdown":true}` and waits for the daemon to exit; returns
    /// the acknowledgement line, which carries the daemon's totals.
    pub fn shutdown(mut self) -> io::Result<String> {
        let ack = self.connect()?.request("{\"shutdown\":true}")?;
        let mut child = self.child.take().expect("running until shutdown");
        if !child.wait()?.success() {
            return Err(io::Error::other("titand exited with an error"));
        }
        Ok(ack)
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One client connection: requests are newline-delimited JSON, answered
/// in order.
pub struct Connection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Connection {
    /// Sends one request line and blocks for the reply line (returned
    /// without its newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("titand closed the connection"));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}
