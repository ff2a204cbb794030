/**
 * @file
 * Stream plumbing for the sweep service (DESIGN.md §15): a
 * Unix-domain listener, a JSONL request/response pump that serves one
 * byte stream (a socket connection or stdin/stdout), and the matching
 * batch client.
 *
 * Wire protocol, both transports: the client writes one JSON request
 * per line and half-closes (or hits EOF); the service writes one JSON
 * response per line *in request order*, regardless of the order the
 * worker pool finishes them, so a client can zip requests to
 * responses positionally and the stream stays deterministic enough to
 * diff.
 */

#ifndef SPECFETCH_SERVE_SOCKET_HH_
#define SPECFETCH_SERVE_SOCKET_HH_

#include <atomic>
#include <string>
#include <vector>

namespace specfetch {

class SweepService;

/** Whether @p path fits a Unix socket address; false with @p error
 *  naming the limit otherwise. */
bool validSocketPath(const std::string &path, std::string *error);

/** Listening Unix-domain stream socket; unlinks its path on close. */
class UnixSocketServer
{
  public:
    UnixSocketServer() = default;
    ~UnixSocketServer();

    UnixSocketServer(const UnixSocketServer &) = delete;
    UnixSocketServer &operator=(const UnixSocketServer &) = delete;

    /**
     * Bind + listen on @p socketPath. A stale socket file from a dead
     * daemon is unlinked first (connect() distinguishes live ones: a
     * live daemon holds the bound inode, so binding would fail with
     * EADDRINUSE and we report it instead of stealing the path).
     */
    bool listen(const std::string &socketPath, std::string *error);

    /**
     * Wait up to @p pollSeconds for a connection. Returns the
     * connected fd, or -1 on timeout/interruption (poll again).
     */
    int accept(double pollSeconds);

    bool listening() const { return fd >= 0; }
    void close();

  private:
    int fd = -1;
    std::string path;
};

/**
 * Pump one JSONL stream through @p service: read requests from
 * @p inFd until EOF (or @p stop goes true), submit each, write the
 * responses to @p outFd in request order, return once every submitted
 * request has been answered and flushed. An oversized or unterminated
 * trailing line is submitted as-is (the service answers it with a
 * typed error — never a crash). Returns false on a write error
 * (client went away; the remaining responses are dropped).
 */
bool serveStream(int inFd, int outFd, SweepService &service,
                 const std::atomic<bool> *stop = nullptr);

/**
 * Batch client: connect to @p socketPath, send @p requestLines, half-
 * close, read responses to EOF into @p responseLines. While nothing
 * listens on the path yet (ENOENT or ECONNREFUSED: a daemon still
 * starting, or restarting behind a stale socket file), connect retries
 * with a backoff from 10 ms, doubling, for about 2 s. Returns false
 * (with @p error) on connect/IO failure; a connect error names the
 * attempts made. The service answers in request order, so
 * responseLines[i] answers requestLines[i].
 */
bool serviceBatch(const std::string &socketPath,
                  const std::vector<std::string> &requestLines,
                  std::vector<std::string> &responseLines,
                  std::string *error = nullptr);

} // namespace specfetch

#endif // SPECFETCH_SERVE_SOCKET_HH_
