//! Byte-stream transports behind one address syntax: `unix:<path>` binds or
//! connects a Unix-domain socket, anything else is a TCP address
//! (`127.0.0.1:0` binds an ephemeral port).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

/// The `unix:` address prefix selecting Unix-domain sockets.
pub(crate) const UNIX_PREFIX: &str = "unix:";

/// One accepted or dialled connection.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound server socket. The Unix variant remembers its path and removes
/// the socket file on drop.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr` and returns the listener plus the resolved address in
    /// the same syntax `connect` accepts (TCP ephemeral ports resolved).
    pub(crate) fn bind(addr: &str) -> io::Result<(Listener, String)> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                // A stale socket file from a dead daemon would fail the
                // bind; a *live* daemon would have the file open, but two
                // daemons on one path is an operator error either way.
                let path = PathBuf::from(path);
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
                let listener = UnixListener::bind(&path)?;
                let resolved = format!("{UNIX_PREFIX}{}", path.display());
                return Ok((Listener::Unix(listener, path), resolved));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let resolved = listener.local_addr()?.to_string();
        Ok((Listener::Tcp(listener), resolved))
    }

    /// Blocks for the next connection.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Dials `addr` (same syntax as [`Listener::bind`]).
pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
    if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
        #[cfg(unix)]
        return UnixStream::connect(path).map(Stream::Unix);
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            ));
        }
    }
    tcp(TcpStream::connect(addr)?)
}

/// Wraps a TCP connection with Nagle's algorithm off. Every frame goes out
/// in one write, so batching small writes gains nothing; it would only
/// hold a short frame (a 28-byte completion after a burst of cells) back
/// until the peer's delayed acknowledgement of the cells, up to 40 ms.
fn tcp(stream: TcpStream) -> io::Result<Stream> {
    stream.set_nodelay(true)?;
    Ok(Stream::Tcp(stream))
}
