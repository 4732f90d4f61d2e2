#include "serve/socket.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "serve/daemon.hh"

namespace lsim::serve
{

namespace
{

/** Default terminal-wait budget when the client asked to wait but
 * set no timeout (an hour: a batch, not an RPC). */
constexpr double kDefaultWaitS = 3600.0;

/** Largest accepted header line / spec body; a batch spec is a few
 * KiB, so these bounds only stop a runaway (or hostile) writer. */
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxSpecBytes = 16 * 1024 * 1024;

/** send() the whole buffer; MSG_NOSIGNAL so a client that hung up
 * yields EPIPE, not process death. */
bool
sendAll(int fd, const std::string &data)
{
    // Shared by daemon and clients, so one fault point covers every
    // direction a write can break mid-stream.
    int injected = 0;
    if (LSIM_FAULT_ERRNO("socket.write", &injected)) {
        errno = injected;
        return false;
    }
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendLine(int fd, const std::string &line)
{
    return sendAll(fd, line + "\n");
}

/** Read exactly @p want bytes. @return false on EOF/error. */
bool
recvExactly(int fd, std::size_t want, std::string *out)
{
    int injected = 0;
    if (LSIM_FAULT_ERRNO("socket.read", &injected)) {
        errno = injected;
        return false;
    }
    out->clear();
    out->reserve(want);
    char buf[4096];
    while (out->size() < want) {
        const std::size_t chunk =
            std::min(sizeof buf, want - out->size());
        const ssize_t n = ::recv(fd, buf, chunk, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        out->append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

/** Read up to and including '\n'; the newline is not kept.
 * @return false on EOF before a newline or an oversized line. */
bool
recvLine(int fd, std::string *out)
{
    int injected = 0;
    if (LSIM_FAULT_ERRNO("socket.read", &injected)) {
        errno = injected;
        return false;
    }
    out->clear();
    char c = 0;
    while (out->size() < kMaxHeaderBytes) {
        const ssize_t n = ::recv(fd, &c, 1, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        if (c == '\n')
            return true;
        out->push_back(c);
    }
    return false;
}

std::string
errorLine(const std::string &name, const std::string &message)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.field("spec", name.empty() ? "?" : name);
    w.field("state", "error");
    w.field("error", message);
    w.endObject();
    return out;
}

/** Connect to the daemon socket; -1 with @p error set on failure. */
int
connectTo(const std::string &socket_path, std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        *error = "socket path too long: " + socket_path;
        return -1;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        *error = "cannot connect to '" + socket_path +
                 "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

SocketServer::SocketServer(Daemon &daemon, const std::string &path)
    : daemon_(daemon), path_(path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof addr.sun_path)
        throw std::invalid_argument(
            "serve: socket path too long (max " +
            std::to_string(sizeof addr.sun_path - 1) +
            " bytes): " + path_);
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        throw std::invalid_argument(
            std::string("serve: socket(): ") +
            std::strerror(errno));
    // A stale socket file from a dead daemon blocks bind(); probe
    // with connect() so a *live* daemon's socket is never stolen.
    if (::bind(listen_fd_,
               reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        std::string probe_error;
        const int probe = connectTo(path_, &probe_error);
        if (probe >= 0) {
            ::close(probe);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::invalid_argument(
                "serve: socket '" + path_ +
                "' is served by another daemon");
        }
        ::unlink(path_.c_str());
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0) {
            const std::string detail = std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::invalid_argument(
                "serve: cannot bind '" + path_ + "': " + detail);
        }
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(path_.c_str());
        throw std::invalid_argument("serve: cannot listen on '" +
                                    path_ + "': " + detail);
    }
    accept_thread_ = std::thread([this] { acceptLoop(); });
    inform("serve: listening on %s", path_.c_str());
}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    stopping_.store(true);
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    // Unblock every connection thread stuck in recv()/waitFor(),
    // then join them all.
    {
        MutexLock lock(conns_mu_);
        for (Connection &conn : conns_)
            ::shutdown(conn.fd, SHUT_RDWR);
    }
    reapFinished(/*join_all=*/true);
    ::unlink(path_.c_str());
}

void
SocketServer::reapFinished(bool join_all)
{
    std::vector<Connection> finished;
    {
        MutexLock lock(conns_mu_);
        for (std::size_t i = 0; i < conns_.size();) {
            if (join_all || conns_[i].done->load()) {
                finished.push_back(std::move(conns_[i]));
                conns_.erase(conns_.begin() +
                             static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
    }
    for (Connection &conn : finished) {
        if (conn.thread.joinable())
            conn.thread.join();
        ::close(conn.fd);
    }
}

void
SocketServer::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        reapFinished(/*join_all=*/false);
        if (ready <= 0)
            continue;
        const int fd =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        if (LSIM_FAULT("socket.accept")) {
            // Injected accept failure: drop the connection exactly
            // as a transient accept4() error would.
            ::close(fd);
            continue;
        }
        auto done = std::make_shared<std::atomic<bool>>(false);
        Connection conn;
        conn.fd = fd;
        conn.done = done;
        conn.thread = std::thread(
            [this, fd, done] { serveConnection(fd, done); });
        MutexLock lock(conns_mu_);
        conns_.push_back(std::move(conn));
    }
}

void
SocketServer::serveConnection(
    int fd, std::shared_ptr<std::atomic<bool>> done)
{
    std::string header;
    if (!recvLine(fd, &header)) {
        done->store(true);
        return;
    }
    std::string name;
    try {
        const JsonValue doc = parseJson(header);
        const std::string cmd = doc.at("cmd").asString();
        if (const JsonValue *n = doc.find("name"))
            name = n->asString();
        if (cmd == "submit") {
            const std::uint64_t spec_bytes =
                doc.at("spec_bytes").asU64();
            if (spec_bytes > kMaxSpecBytes) {
                sendLine(fd,
                         errorLine(name, "spec too large"));
                done->store(true);
                return;
            }
            std::string spec;
            if (!recvExactly(fd, spec_bytes, &spec)) {
                done->store(true);
                return;
            }
            int priority = 0;
            if (const JsonValue *p = doc.find("priority"))
                priority = static_cast<int>(p->asNumber());
            bool wait = false;
            if (const JsonValue *w = doc.find("wait"))
                wait = w->asBool();
            double timeout_s = kDefaultWaitS;
            if (const JsonValue *t = doc.find("timeout_s"))
                timeout_s = t->asNumber();

            std::string ack;
            const SubmitResult admitted = daemon_.submitRequest(
                name, spec, priority, &ack);
            if (!sendLine(fd, ack) ||
                admitted == SubmitResult::Rejected || !wait) {
                done->store(true);
                return;
            }
            sendLine(fd, daemon_.waitFor(name, timeout_s));
        } else if (cmd == "wait") {
            double timeout_s = kDefaultWaitS;
            if (const JsonValue *t = doc.find("timeout_s"))
                timeout_s = t->asNumber();
            sendLine(fd, daemon_.waitFor(name, timeout_s));
        } else {
            sendLine(fd, errorLine(
                             name, "unknown command '" + cmd + "'"));
        }
    } catch (const std::exception &err) {
        sendLine(fd, errorLine(name, std::string("bad request: ") +
                                         err.what()));
    }
    done->store(true);
}

namespace
{

/** Shared client tail: send @p payload, read @p expect_lines. */
ClientResult
roundTrip(const std::string &socket_path,
          const std::string &payload, std::size_t expect_lines)
{
    ClientResult result;
    const int fd = connectTo(socket_path, &result.error);
    if (fd < 0)
        return result;
    if (!sendAll(fd, payload)) {
        result.error = std::string("send failed: ") +
                       std::strerror(errno);
        ::close(fd);
        return result;
    }
    for (std::size_t i = 0; i < expect_lines; ++i) {
        std::string line;
        if (!recvLine(fd, &line)) {
            if (result.lines.empty()) {
                result.error = "connection closed before a "
                               "response arrived";
                ::close(fd);
                return result;
            }
            break; // daemon sent fewer lines (e.g. rejection)
        }
        result.lines.push_back(std::move(line));
    }
    ::close(fd);
    result.ok = !result.lines.empty();
    if (!result.ok && result.error.empty())
        result.error = "empty response";
    return result;
}

} // namespace

ClientResult
socketSubmit(const std::string &socket_path,
             const std::string &name,
             const std::string &spec_text, int priority, bool wait,
             double timeout_s)
{
    std::string header;
    JsonWriter w(header);
    w.beginObject();
    w.field("cmd", "submit");
    w.field("name", name);
    w.field("priority", static_cast<double>(priority));
    w.field("wait", wait);
    w.field("timeout_s", timeout_s);
    w.field("spec_bytes",
            static_cast<std::uint64_t>(spec_text.size()));
    w.endObject();
    return roundTrip(socket_path, header + "\n" + spec_text,
                     wait ? 2 : 1);
}

ClientResult
socketWait(const std::string &socket_path, const std::string &name,
           double timeout_s)
{
    std::string header;
    JsonWriter w(header);
    w.beginObject();
    w.field("cmd", "wait");
    w.field("name", name);
    w.field("timeout_s", timeout_s);
    w.endObject();
    return roundTrip(socket_path, header + "\n", 1);
}

} // namespace lsim::serve
