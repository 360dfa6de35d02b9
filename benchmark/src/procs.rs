//! Process hygiene: temp dirs and child processes that are reclaimed by
//! drop guards even on panic, free ports, and a child's exit status with its
//! peak resident set.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a child may take to exit after it was asked to, or a one-shot
/// child to finish, before it is killed and the operation counts as failed.
pub const EXIT_LIMIT: Duration = Duration::from_secs(60);

/// A directory removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

impl TempDir {
    /// Creates `parent/<prefix>-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new_in(parent: &Path, prefix: &str) -> std::io::Result<TempDir> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{prefix}-{}-{n}", std::process::id()));
        // A leftover from a killed run with a recycled pid must not leak in.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`.
///
/// # Errors
///
/// Fails when a directory cannot be listed.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// A port nothing listens on right now.  Binding port 0 lets the kernel
/// pick; the listener is dropped before the program binds it, and
/// `SO_REUSEADDR` (set by std on Unix listeners) makes the rebind immediate.
///
/// # Errors
///
/// Fails when no loopback port can be bound.
pub fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind(("127.0.0.1", 0))?.local_addr()?.port())
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub success: bool,
    /// Peak resident set of the process (`ru_maxrss`, the same high-water
    /// mark `/proc/<pid>/status` shows as `VmHWM`).
    pub peak_rss_kb: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        times: [i64; 4],
        pub maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    /// Blocks until `pid` (a child of this process) exits; returns its raw
    /// wait status and resource usage, or `None` when it is not ours to reap.
    pub fn wait_child(pid: u32) -> Option<(i32, Rusage)> {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are valid, writable and live for
            // the call; `Rusage` has the size and layout of the kernel's
            // `struct rusage` on 64-bit Linux (144 bytes), so the kernel
            // writes only inside it.
            let got = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
            if got == pid as i32 {
                return Some((status, usage));
            }
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return None;
            }
        }
    }

    /// Makes this thread's timed sleeps wake within microseconds instead of
    /// the default 50 µs slack, so an open-loop sender can sleep to a due
    /// time without spinning.
    pub fn precise_sleeps() {
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and affects only
        // the calling thread's timer slack; no memory is passed.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through wait4 and needs 64-bit Linux");

pub use sys::precise_sleeps;

/// A child process that is killed and reaped when dropped.
#[derive(Debug)]
pub struct Proc {
    child: Option<Child>,
    pub stdin: Option<ChildStdin>,
    pub stdout: Option<BufReader<ChildStdout>>,
    pub spawned: Instant,
    name: String,
}

impl Proc {
    /// Spawns `bin args…` with piped stdin/stdout and stderr discarded.
    ///
    /// # Errors
    ///
    /// Fails when the program cannot be started.
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Proc> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let name = format!("{} {}", bin.display(), args.first().copied().unwrap_or(""));
        Ok(Proc { child: Some(child), stdin, stdout, spawned, name })
    }

    /// Reads stdout to its end (the child closes it by exiting).
    pub fn read_stdout(&mut self) -> String {
        let mut out = String::new();
        if let Some(stdout) = self.stdout.as_mut() {
            let _ = std::io::Read::read_to_string(stdout, &mut out);
        }
        out
    }

    /// Sends one line on the child's stdin.
    ///
    /// # Errors
    ///
    /// Fails when the child closed its stdin.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(std::io::ErrorKind::BrokenPipe)?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Waits for the child to exit by itself and reaps it.  A child still
    /// running after `limit` is killed and reported as failed, so a hung
    /// program is a failed operation and never a hung benchmark.
    pub fn wait(mut self, limit: Duration) -> Exit {
        let Some(mut child) = self.child.take() else {
            return Exit { success: false, peak_rss_kb: 0 };
        };
        // Dropping stdin gives the child EOF; dropping stdout cannot block.
        self.stdin = None;
        let pid = child.id();
        let (tx, rx) = mpsc::channel();
        let reaper = std::thread::spawn(move || {
            let _ = tx.send(sys::wait_child(pid));
        });
        let (reaped, timed_out) = match rx.recv_timeout(limit) {
            Ok(reaped) => (reaped, false),
            Err(_) => {
                // Not reaped yet, so the pid is still ours to signal.
                let _ = child.kill();
                (rx.recv().ok().flatten(), true)
            }
        };
        let _ = reaper.join();
        match reaped {
            Some((status, usage)) => Exit {
                // WIFEXITED && WEXITSTATUS == 0
                success: !timed_out && status & 0x7f == 0 && (status >> 8) & 0xff == 0,
                peak_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
            },
            None => Exit { success: false, peak_rss_kb: 0 },
        }
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Connects to `addr`, retrying until `limit`: a freshly spawned server needs
/// a moment to load its store and bind.
///
/// # Errors
///
/// Fails with the last connect error once `limit` has passed.
pub fn connect_retry(addr: SocketAddr, limit: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + limit;
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_removed_on_drop_and_on_panic() {
        let parent = crate::test_dir();
        let kept;
        {
            let dir = TempDir::new_in(&parent, "guard").unwrap();
            kept = dir.path().to_owned();
            std::fs::write(kept.join("x"), b"abc").unwrap();
            assert_eq!(dir_bytes(&kept).unwrap(), 3);
        }
        assert!(!kept.exists());
        let caught = std::panic::catch_unwind(|| {
            let dir = TempDir::new_in(&crate::test_dir(), "guard").unwrap();
            let path = dir.path().to_owned();
            std::panic::panic_any(path);
        });
        let path = caught.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "unwinding must run the guard");
    }

    #[test]
    fn children_report_exit_and_peak_rss_and_hung_ones_are_killed() {
        let ok = Proc::spawn(Path::new("sh"), &["-c", "echo hi"]).unwrap();
        let exit = ok.wait(EXIT_LIMIT);
        assert!(exit.success);
        assert!(exit.peak_rss_kb > 0);

        let bad = Proc::spawn(Path::new("sh"), &["-c", "exit 3"]).unwrap();
        assert!(!bad.wait(EXIT_LIMIT).success);

        let started = Instant::now();
        let hung = Proc::spawn(Path::new("sleep"), &["30"]).unwrap();
        let exit = hung.wait(Duration::from_millis(100));
        assert!(!exit.success);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dropping_a_child_kills_it() {
        let proc = Proc::spawn(Path::new("sleep"), &["30"]).unwrap();
        let pid = proc.child.as_ref().unwrap().id();
        drop(proc);
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn free_ports_can_be_bound_again_at_once() {
        let port = free_port().unwrap();
        assert!(TcpListener::bind(("127.0.0.1", port)).is_ok());
    }
}
