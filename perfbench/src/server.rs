//! The `fairhms serve` child process: spawned with shipped defaults, its
//! environment scrubbed of every `FAIRHMS_TEST_*` hook, stopped over the
//! wire and always reaped.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// The exact arguments after the binary, for the result record.
    pub args: Vec<String>,
}

impl Server {
    /// Starts `bin serve --data a=A.csv,… --addr 127.0.0.1:0` and waits for
    /// its `listening on` banner (printed once every dataset is loaded and
    /// prepared).
    pub fn spawn(bin: &Path, data: &[(String, PathBuf)], log: &Path) -> io::Result<Server> {
        let spec: Vec<String> = data
            .iter()
            .map(|(name, path)| format!("{name}={}", path.display()))
            .collect();
        let args = vec![
            "serve".to_string(),
            "--data".to_string(),
            spec.join(","),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
        ];
        let mut cmd = Command::new(bin);
        cmd.args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("FAIRHMS_TEST_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd.spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
            args,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other(format!(
                    "server exited before listening; see {}",
                    log.display()
                )));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server process, KiB.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `SHUTDOWN` and waits for the process to exit; kills it if it
    /// has not exited within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = (|| -> io::Result<()> {
            let mut s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(b"SHUTDOWN\n")?;
            let mut reply = [0u8; 16];
            let _ = s.read(&mut reply)?;
            Ok(())
        })();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                let mut rest = String::new();
                self.stdout.read_to_string(&mut rest)?;
                return asked;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other(
            "server did not stop within 10 s of SHUTDOWN",
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
