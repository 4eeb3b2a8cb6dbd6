#include "obs/admin_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace aims::obs {

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 414:
      return "URI Too Long";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "OK";
  }
}

// Canned overload answer, written straight from the accept thread when the
// pending queue is full: constant cost, no allocation, no handler.
constexpr char kOverloadResponse[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 36\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"error\":\"admin plane at capacity\"}\n";

void SetSocketTimeouts(int fd, double timeout_ms) {
  if (timeout_ms <= 0.0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec =
      static_cast<suseconds_t>(static_cast<long>(timeout_ms * 1000.0) %
                               1000000L);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

AdminHttpServer::AdminHttpServer(AdminHttpConfig config)
    : config_(config) {
  if (config_.handler_threads < 1) config_.handler_threads = 1;
  if (config_.max_pending < 1) config_.max_pending = 1;
  if (config_.max_request_bytes < 256) config_.max_request_bytes = 256;
}

AdminHttpServer::~AdminHttpServer() { Stop(); }

void AdminHttpServer::Route(std::string path, Handler handler) {
  exact_routes_[std::move(path)] = std::move(handler);
}

void AdminHttpServer::RoutePrefix(std::string prefix, Handler handler) {
  prefix_routes_.emplace_back(std::move(prefix), std::move(handler));
}

Status AdminHttpServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_) {
    return Status::FailedPrecondition("admin http: already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("admin http: socket: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    return Status::IoError("admin http: bind 127.0.0.1:" +
                           std::to_string(config_.port) + ": " +
                           std::strerror(saved));
  }
  if (::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    return Status::IoError(std::string("admin http: listen: ") +
                           std::strerror(saved));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    const int saved = errno;
    ::close(fd);
    return Status::IoError(std::string("admin http: getsockname: ") +
                           std::strerror(saved));
  }
  listen_fd_ = fd;
  port_.store(static_cast<int>(ntohs(addr.sin_port)),
              std::memory_order_release);

  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    stop_requested_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  handlers_.reserve(static_cast<size_t>(config_.handler_threads));
  for (int i = 0; i < config_.handler_threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  running_ = true;
  return Status::OK();
}

void AdminHttpServer::Stop() {
  // The lifecycle mutex spans the joins and the close: a Start racing this
  // Stop waits until the old threads have exited, instead of resetting
  // stop_requested_ under them and handing this Stop its new listen_fd_.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_) return;
  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    stop_requested_ = true;
  }
  queue_cv_.notify_all();
  accept_thread_.join();
  for (std::thread& t : handlers_) t.join();
  handlers_.clear();
  // Connections still queued never reached a handler: close them (the
  // client sees a reset, same contract as the canned 503 path but later).
  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(-1, std::memory_order_release);
  running_ = false;
}

void AdminHttpServer::AcceptLoop() {
  // poll() with a short timeout instead of relying on close() waking a
  // blocked accept(): the close-to-wake pattern races on some platforms
  // (the fd can be recycled between the close and the wakeup).
  struct pollfd pfd;
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stop_requested_) return;
    }
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetSocketTimeouts(fd, config_.io_timeout_ms);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!stop_requested_ && pending_.size() < config_.max_pending) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteAll(fd, kOverloadResponse, sizeof(kOverloadResponse) - 1);
      ::close(fd);
    }
  }
}

void AdminHttpServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [&] { return stop_requested_ || !pending_.empty(); });
      if (stop_requested_) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

bool AdminHttpServer::ReadRequestHead(int fd, std::string* head) {
  char buffer[1024];
  const auto start = std::chrono::steady_clock::now();
  while (head->find("\r\n\r\n") == std::string::npos) {
    if (head->size() >= config_.max_request_bytes) {
      slow_clients_.fetch_add(1, std::memory_order_relaxed);
      AdminResponse too_large;
      too_large.status = 431;
      too_large.body = "{\"error\":\"request head too large\"}\n";
      WriteResponse(fd, too_large);
      return false;
    }
    // Request-line cap, checked before the full head cap: a target that
    // has not even finished its first line by this many bytes is hostile.
    if (head->find("\r\n") == std::string::npos &&
        head->size() >= config_.max_request_line_bytes) {
      slow_clients_.fetch_add(1, std::memory_order_relaxed);
      AdminResponse too_long;
      too_long.status = 414;
      too_long.body = "{\"error\":\"request line too long\"}\n";
      WriteResponse(fd, too_long);
      return false;
    }
    // Total-deadline enforcement: the per-recv SO_RCVTIMEO bounds one
    // stall, but a trickling client resets it with every byte. Poll with
    // the REMAINING budget so the whole head read is wall-clock bounded;
    // on expiry close without a response (the 408 a slowloris client is
    // waiting for would itself be a write to a hostile peer).
    if (config_.read_deadline_ms > 0.0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      const double remaining_ms = config_.read_deadline_ms - elapsed_ms;
      if (remaining_ms <= 0.0) {
        slow_clients_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int wait_ms = static_cast<int>(remaining_ms) + 1;
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready <= 0) {
        slow_clients_.fetch_add(1, std::memory_order_relaxed);
        return false;  // deadline expired with no readable data
      }
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;  // timeout, reset, or premature close
    head->append(buffer, static_cast<size_t>(n));
  }
  return true;
}

const AdminHttpServer::Handler* AdminHttpServer::Resolve(
    const std::string& path) const {
  auto it = exact_routes_.find(path);
  if (it != exact_routes_.end()) return &it->second;
  const Handler* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, handler] : prefix_routes_) {
    if (path.size() >= prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        prefix.size() >= best_len) {
      best = &handler;
      best_len = prefix.size();
    }
  }
  return best;
}

void AdminHttpServer::ServeConnection(int fd) {
  std::string head;
  if (!ReadRequestHead(fd, &head)) return;

  // Request line: METHOD SP PATH[?QUERY] SP VERSION CRLF
  const size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    AdminResponse bad;
    bad.status = 400;
    bad.body = "{\"error\":\"malformed request line\"}\n";
    WriteResponse(fd, bad);
    return;
  }
  AdminRequest request;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    request.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  request.path = std::move(target);

  if (request.method != "GET") {
    AdminResponse not_allowed;
    not_allowed.status = 405;
    not_allowed.body = "{\"error\":\"admin plane is read-only; use GET\"}\n";
    WriteResponse(fd, not_allowed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const Handler* handler = Resolve(request.path);
  AdminResponse response;
  if (handler == nullptr) {
    response.status = 404;
    response.body = "{\"error\":\"no such endpoint\"}\n";
  } else {
    response = (*handler)(request);
  }
  WriteResponse(fd, response);
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void AdminHttpServer::WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // timeout or reset: give up, caller closes
    off += static_cast<size_t>(n);
  }
}

void AdminHttpServer::WriteResponse(int fd, const AdminResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  WriteAll(fd, out.data(), out.size());
}

std::string UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(text[i + 1]);
      const int lo = hex(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
      } else {
        out += c;  // malformed escape passes through literally
      }
    } else {
      out += c;
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryParams(const std::string& query) {
  std::map<std::string, std::string> params;
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        params[UrlDecode(pair)] = "";
      } else {
        params[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    pos = amp + 1;
  }
  return params;
}

}  // namespace aims::obs
