#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <thread>
#include <vector>

#include "common/frame.hpp"

namespace dfsssp::service {

Server::Server(ServiceCore& core, ServerOptions options)
    : core_(&core),
      options_(std::move(options)),
      frames_malformed_(obs::registry().counter("service/frames_malformed")),
      frames_oversized_(obs::registry().counter("service/frames_oversized")) {}

void Server::serve_stream(int in_fd, int out_fd) {
  // Stop serving (after the grace ticks) once SIGTERM arrived or the core
  // began draining — either way the remaining frames get kErrDraining.
  const auto stopping = [this] {
    return (options_.stop != nullptr && *options_.stop != 0) ||
           core_->draining();
  };

  std::string payload;
  for (;;) {
    if (options_.stop != nullptr && *options_.stop != 0) {
      core_->begin_drain();
    }
    const FrameResult fr = read_frame(in_fd, payload, stopping);
    if (fr == FrameResult::kEof || fr == FrameResult::kError ||
        fr == FrameResult::kStopped) {
      return;
    }
    ServiceResponse resp;
    if (fr == FrameResult::kOversized) {
      frames_oversized_.inc();
      // Nothing of the request survived, so the echo fields are zero.
      resp = error_response(ServiceRequest{}, Status::kErrOversized,
                            "frame payload above limit");
    } else {
      ServiceRequest req;
      const Status st = decode_request(payload, req);
      if (st != Status::kOk) {
        frames_malformed_.inc();
        resp = error_response(req, st, "bad request frame");
      } else {
        resp = core_->handle(req);
      }
    }
    if (!write_frame(out_fd, encode_response(resp))) return;
  }
}

int Server::run_pipe() {
  std::signal(SIGPIPE, SIG_IGN);
  serve_stream(options_.in_fd, options_.out_fd);
  return 0;
}

int Server::run_socket() {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string& path = options_.socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    return 2;  // unusable socket path
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return 2;
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    return 2;
  }

  std::vector<std::thread> connections;
  for (;;) {
    if ((options_.stop != nullptr && *options_.stop != 0) ||
        core_->draining()) {
      break;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    connections.emplace_back([this, conn] {
      serve_stream(conn, conn);
      ::close(conn);
    });
  }

  ::close(listen_fd);
  // Connection threads observe the same stop/draining predicate and wind
  // down after answering in-flight frames with kErrDraining.
  for (std::thread& t : connections) t.join();
  ::unlink(path.c_str());
  return 0;
}

}  // namespace dfsssp::service
