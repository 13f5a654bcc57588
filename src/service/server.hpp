// Transport loops that put a ServiceCore on the wire.
//
// Two modes, one request path:
//   * pipe mode — serve one framed stream on a given (in_fd, out_fd) pair.
//     This is how tests and CI drive the daemon: spawn it with pipes (or a
//     socketpair) and get a deterministic single-stream conversation.
//   * socket mode — bind a unix-domain socket, accept loop, one serving
//     thread per connection. Concurrent clients multiplex on the
//     ServiceCore whose locking rules (core.hpp) make that safe.
//
// Both loops implement the same drain protocol: when the stop flag rises
// (SIGTERM in dfrouted) or the core starts draining (shutdown request),
// in-flight requests finish and are answered, frames that are already
// arriving get Status::kErrDraining, and the loop exits 0 once the stream
// goes quiet — never killing a response mid-write. Malformed and oversized
// frames get structured error responses; only EOF or a transport error
// closes a connection.
#pragma once

#include <csignal>
#include <string>

#include "obs/metrics.hpp"
#include "service/core.hpp"

namespace dfsssp::service {

struct ServerOptions {
  /// Unix-domain socket path (socket mode). Unlinked before bind and on
  /// exit.
  std::string socket_path;
  /// Pipe mode file descriptors.
  int in_fd = 0;
  int out_fd = 1;
  /// Signal-handler stop flag (SIGTERM). Non-zero = begin drain.
  const volatile std::sig_atomic_t* stop = nullptr;
};

class Server {
 public:
  Server(ServiceCore& core, ServerOptions options);

  /// Serves options.in_fd/out_fd until EOF, a transport error, or drain.
  /// Returns the process exit code (0 on clean EOF or drain).
  int run_pipe();

  /// Binds options.socket_path and serves until the stop flag rises or a
  /// shutdown request drains the core; joins every connection thread
  /// before returning the exit code.
  int run_socket();

 private:
  /// One connection's read-decode-handle-respond loop (both modes).
  void serve_stream(int in_fd, int out_fd);

  ServiceCore* core_;
  ServerOptions options_;
  obs::Counter& frames_malformed_;
  obs::Counter& frames_oversized_;
};

}  // namespace dfsssp::service
