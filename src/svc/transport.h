/**
 * @file
 * The sweep service's byte stream: one connected AF_UNIX stream socket.
 *
 * The coordinator/worker protocol is a framed byte stream (see frame.h)
 * between processes on one host. A Stream owns one connected
 * socket fd (blocking read/write, pollable for readiness); a Listener
 * owns one bound, listening socket. listen() and connect() create them
 * from an endpoint string: "unix:/path/sock", or a bare path as
 * shorthand. Any other scheme is a configuration error.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

namespace wsrs::svc {

/** Connected, blocking, bidirectional byte stream over a unix socket. */
class Stream
{
  public:
    /** Take ownership of the connected socket @p fd. */
    explicit Stream(int fd) : fd_(fd) {}
    ~Stream() { close(); }

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /** Read up to @p len bytes; 0 = orderly EOF, negative = error. */
    long read(void *buf, std::size_t len);

    /** Write the whole buffer; false on any error (peer gone, ...). */
    bool writeAll(const void *buf, std::size_t len);

    /** The socket fd, to poll(2) for read-readiness; -1 once closed. */
    int pollFd() const { return fd_; }

    /** Shut the stream down; further I/O fails. Idempotent. */
    void close();

  private:
    int fd_ = -1;
};

/** Listening unix socket; removes its socket file on close. */
class Listener
{
  public:
    /** Take ownership of the listening socket @p fd bound at @p path. */
    Listener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
    ~Listener() { close(); }

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Block until a peer connects; null once closed. */
    std::unique_ptr<Stream> accept();

    /** The socket fd, to poll(2) for accept-readiness; -1 once closed. */
    int pollFd() const { return fd_; }

    /** The endpoint peers connect() to. */
    std::string endpoint() const { return "unix:" + path_; }

    void close();

  private:
    int fd_ = -1;
    std::string path_;
};

/**
 * Bind and listen on @p endpoint ("unix:/path" or a bare path). A stale
 * socket file at the path is replaced.
 * @throws wsrs::FatalError for unknown schemes or an over-long path.
 * @throws wsrs::IoError when the socket cannot be bound.
 */
std::unique_ptr<Listener> listen(const std::string &endpoint);

/**
 * Connect to @p endpoint ("unix:/path" or a bare path).
 * @throws wsrs::FatalError for unknown schemes or an over-long path.
 * @throws wsrs::IoError when nothing listens there.
 */
std::unique_ptr<Stream> connect(const std::string &endpoint);

/** Strip a scheme prefix ("unix:") from an endpoint, if present. */
std::string endpointPath(const std::string &endpoint);

/**
 * In-process connected stream pair (socketpair(2)), used by tests and by
 * same-process coordinator/worker wiring.
 */
std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>> localPair();

} // namespace wsrs::svc
