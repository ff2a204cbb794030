#include "serve/socket.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "metrics/metrics.hh"
#include "serve/service.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

bool
fillSocketAddress(const std::string &path, sockaddr_un &addr,
                  std::string *error)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        if (error) {
            *error = "socket path must be 1.." +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes: '" + path + "'";
        }
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** write() until done; false once the peer is gone. */
bool
writeAll(int fd, const char *data, size_t size)
{
    while (size > 0) {
        ssize_t wrote = ::write(fd, data, size);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        size -= static_cast<size_t>(wrote);
    }
    return true;
}

/** Connect to @p addr with serviceBatch's retry: ENOENT and
 *  ECONNREFUSED back off from 10 ms, doubling, for about 2 s in all;
 *  any other error fails at once. */
int
connectWithRetry(const std::string &socketPath, const sockaddr_un &addr,
                 std::string *error)
{
    constexpr std::chrono::milliseconds kFirstDelay{10};
    constexpr std::chrono::milliseconds kTotalDelay{2000};
    std::chrono::milliseconds delay = kFirstDelay;
    std::chrono::milliseconds waited{0};
    for (unsigned attempts = 1;; ++attempts) {
        int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (sock < 0) {
            if (error)
                *error = std::string("socket(): ") + std::strerror(errno);
            return -1;
        }
        if (::connect(sock, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            return sock;
        }
        const int cause = errno;
        ::close(sock);
        const bool notYet = cause == ENOENT || cause == ECONNREFUSED;
        if (!notYet || waited >= kTotalDelay) {
            if (error) {
                *error = "connect('" + socketPath +
                         "'): " + std::strerror(cause) + " after " +
                         std::to_string(attempts) + " attempt" +
                         (attempts == 1 ? "" : "s");
            }
            return -1;
        }
        const std::chrono::milliseconds pause =
            std::min(delay, kTotalDelay - waited);
        std::this_thread::sleep_for(pause);
        waited += pause;
        delay *= 2;
    }
}

/** Shared by the responders of one stream: responses are buffered per
 *  submission slot and flushed strictly in order. */
struct StreamOrder
{
    std::mutex mutex;
    std::condition_variable done;
    std::vector<std::string> slots;
    std::vector<uint8_t> ready;
    size_t flushed = 0;
    int outFd = -1;
    bool writeFailed = false;
    MetricCounter *bytesWritten = nullptr; ///< borrowed; may be null

    /** Called with the slot's response; flushes every consecutive
     *  ready slot starting at the cursor. */
    void deliver(size_t slot, std::string line)
    {
        std::lock_guard<std::mutex> lock(mutex);
        slots[slot] = std::move(line);
        ready[slot] = 1;
        while (flushed < ready.size() && ready[flushed]) {
            if (!writeFailed) {
                slots[flushed].push_back('\n');
                if (writeAll(outFd, slots[flushed].data(),
                             slots[flushed].size())) {
                    if (bytesWritten)
                        bytesWritten->add(slots[flushed].size());
                } else {
                    writeFailed = true;
                }
            }
            slots[flushed].clear();
            slots[flushed].shrink_to_fit();
            ++flushed;
        }
        done.notify_all();
    }
};

} // namespace

bool
validSocketPath(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    return fillSocketAddress(path, addr, error);
}

UnixSocketServer::~UnixSocketServer()
{
    close();
}

bool
UnixSocketServer::listen(const std::string &socketPath, std::string *error)
{
    close();
    sockaddr_un addr;
    if (!fillSocketAddress(socketPath, addr, error))
        return false;
    int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (sock < 0) {
        if (error)
            *error = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    // A leftover socket file from a crashed daemon would make bind()
    // fail forever; try to connect first — refusal means it is dead.
    if (::connect(sock, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        ::close(sock);
        if (error)
            *error = "another daemon is live on '" + socketPath + "'";
        return false;
    }
    ::unlink(socketPath.c_str());
    if (::bind(sock, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        if (error)
            *error = "bind('" + socketPath +
                     "'): " + std::strerror(errno);
        ::close(sock);
        return false;
    }
    if (::listen(sock, 64) < 0) {
        if (error)
            *error = std::string("listen(): ") + std::strerror(errno);
        ::close(sock);
        ::unlink(socketPath.c_str());
        return false;
    }
    fd = sock;
    path = socketPath;
    return true;
}

int
UnixSocketServer::accept(double pollSeconds)
{
    if (fd < 0)
        return -1;
    pollfd waiter;
    waiter.fd = fd;
    waiter.events = POLLIN;
    waiter.revents = 0;
    int timeoutMs = static_cast<int>(pollSeconds * 1000.0);
    int readyCount = ::poll(&waiter, 1, timeoutMs);
    if (readyCount <= 0)
        return -1;
    int client = ::accept(fd, nullptr, nullptr);
    return client < 0 ? -1 : client;
}

void
UnixSocketServer::close()
{
    if (fd < 0)
        return;
    ::close(fd);
    fd = -1;
    if (!path.empty())
        ::unlink(path.c_str());
    path.clear();
}

bool
serveStream(int inFd, int outFd, SweepService &service,
            const std::atomic<bool> *stop)
{
    StreamOrder order;
    order.outFd = outFd;

    // Wire-level instruments; null (one pointer test per update) when
    // the service carries no registry.
    MetricCounter *bytesRead = nullptr;
    MetricCounter *bytesWritten = nullptr;
    MetricCounter *linesRead = nullptr;
    if (MetricsRegistry *registry = service.metricsRegistry()) {
        bytesRead = &registry->counter("socket.bytes_read");
        bytesWritten = &registry->counter("socket.bytes_written");
        linesRead = &registry->counter("socket.lines_read");
    }
    order.bytesWritten = bytesWritten;

    std::string pending;
    char chunk[4096];
    bool sawEof = false;
    while (!sawEof) {
        if (stop && stop->load())
            break;
        pollfd waiter;
        waiter.fd = inFd;
        waiter.events = POLLIN;
        waiter.revents = 0;
        int readyCount = ::poll(&waiter, 1, /*timeout_ms=*/200);
        if (readyCount < 0 && errno != EINTR)
            break;
        if (readyCount <= 0)
            continue;
        ssize_t got = ::read(inFd, chunk, sizeof(chunk));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (got == 0) {
            sawEof = true;
        } else {
            pending.append(chunk, static_cast<size_t>(got));
            if (bytesRead)
                bytesRead->add(static_cast<uint64_t>(got));
        }

        size_t start = 0;
        for (;;) {
            size_t newline = pending.find('\n', start);
            std::string line;
            if (newline == std::string::npos) {
                // An unterminated trailing line still deserves an
                // answer once the stream has ended.
                if (!sawEof || start >= pending.size())
                    break;
                line = pending.substr(start);
                start = pending.size();
            } else {
                line = pending.substr(start, newline - start);
                start = newline + 1;
            }
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty() && newline != std::string::npos)
                continue; // blank keep-alive line
            if (line.empty())
                break;
            if (linesRead)
                linesRead->add(1);
            size_t slot;
            {
                std::lock_guard<std::mutex> lock(order.mutex);
                slot = order.slots.size();
                order.slots.emplace_back();
                order.ready.push_back(0);
            }
            service.submit(line, [&order, slot](std::string response) {
                order.deliver(slot, std::move(response));
            });
            if (start >= pending.size())
                break;
        }
        pending.erase(0, start);
    }

    std::unique_lock<std::mutex> lock(order.mutex);
    order.done.wait(lock,
                    [&order] { return order.flushed == order.slots.size(); });
    return !order.writeFailed;
}

bool
serviceBatch(const std::string &socketPath,
             const std::vector<std::string> &requestLines,
             std::vector<std::string> &responseLines, std::string *error)
{
    responseLines.clear();
    sockaddr_un addr;
    if (!fillSocketAddress(socketPath, addr, error))
        return false;
    int sock = connectWithRetry(socketPath, addr, error);
    if (sock < 0)
        return false;
    std::string payload;
    for (const std::string &line : requestLines) {
        payload += line;
        payload.push_back('\n');
    }
    if (!writeAll(sock, payload.data(), payload.size())) {
        if (error)
            *error = std::string("write(): ") + std::strerror(errno);
        ::close(sock);
        return false;
    }
    ::shutdown(sock, SHUT_WR);

    std::string received;
    char chunk[4096];
    for (;;) {
        ssize_t got = ::read(sock, chunk, sizeof(chunk));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("read(): ") + std::strerror(errno);
            ::close(sock);
            return false;
        }
        if (got == 0)
            break;
        received.append(chunk, static_cast<size_t>(got));
    }
    ::close(sock);

    size_t start = 0;
    while (start < received.size()) {
        size_t newline = received.find('\n', start);
        if (newline == std::string::npos)
            newline = received.size();
        if (newline > start)
            responseLines.push_back(
                received.substr(start, newline - start));
        start = newline + 1;
    }
    return true;
}

} // namespace specfetch
