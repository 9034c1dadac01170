#include "transport.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/common/log.h"

namespace wsrs::svc {

namespace {

/** Filesystem path of @p endpoint; fatal on any scheme but unix. */
std::string
socketPath(const std::string &endpoint)
{
    const auto colon = endpoint.find(':');
    const std::string scheme =
        colon == std::string::npos ? "unix" : endpoint.substr(0, colon);
    if (scheme != "unix" && !scheme.empty() && endpoint.rfind('/', 0) != 0)
        fatal("unknown transport scheme '%s' in endpoint '%s' (supported: "
              "unix:<path>)",
              scheme.c_str(), endpoint.c_str());
    return endpointPath(endpoint);
}

sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("unix socket path '%s' exceeds the %zu-byte limit",
              path.c_str(), sizeof(addr.sun_path) - 1);
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    return addr;
}

int
unixSocket()
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fatalIo("cannot create unix socket: %s", std::strerror(errno));
    return fd;
}

} // namespace

long
Stream::read(void *buf, std::size_t len)
{
    if (fd_ < 0)
        return -1;
    for (;;) {
        const ssize_t n = ::read(fd_, buf, len);
        if (n >= 0)
            return static_cast<long>(n);
        if (errno == EINTR)
            continue;
        return -1;
    }
}

bool
Stream::writeAll(const void *buf, std::size_t len)
{
    const char *p = static_cast<const char *>(buf);
    while (len > 0) {
        if (fd_ < 0)
            return false;
        const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
Stream::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::unique_ptr<Stream>
Listener::accept()
{
    for (;;) {
        if (fd_ < 0)
            return nullptr;
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn >= 0)
            return std::make_unique<Stream>(conn);
        if (errno == EINTR)
            continue;
        return nullptr;
    }
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
}

std::unique_ptr<Listener>
listen(const std::string &endpoint)
{
    const std::string path = socketPath(endpoint);
    const sockaddr_un addr = unixAddr(path);
    const int fd = unixSocket();
    // A stale socket file from a killed coordinator blocks bind; remove
    // it (connect() to a dead socket fails, so this cannot hijack a live
    // endpoint accidentally — deployments use per-run socket paths).
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatalIo("cannot bind unix socket '%s': %s", path.c_str(),
                std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        fatalIo("cannot listen on unix socket '%s': %s", path.c_str(),
                std::strerror(err));
    }
    return std::make_unique<Listener>(fd, path);
}

std::unique_ptr<Stream>
connect(const std::string &endpoint)
{
    const std::string path = socketPath(endpoint);
    const sockaddr_un addr = unixAddr(path);
    const int fd = unixSocket();
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatalIo("cannot connect to '%s': %s", path.c_str(),
                std::strerror(err));
    }
    return std::make_unique<Stream>(fd);
}

std::string
endpointPath(const std::string &endpoint)
{
    if (endpoint.rfind("unix:", 0) == 0)
        return endpoint.substr(5);
    return endpoint;
}

std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>>
localPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
        fatalIo("socketpair failed: %s", std::strerror(errno));
    return {std::make_unique<Stream>(fds[0]),
            std::make_unique<Stream>(fds[1])};
}

} // namespace wsrs::svc
