#include "service/transport.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace vpc
{

using Clock = std::chrono::steady_clock;

namespace
{

enum class FrameType : std::uint8_t
{
    Hello = 1,
    HelloAck = 2,
    SubmitBatch = 3,
    SubmitAck = 4,
    Watch = 5,
    Complete = 6,
    Ping = 7,
    Pong = 8,
};

/** @name Wire encoding: native-order fixed-width appends/reads. */
/// @{

void
putU8(std::string &s, std::uint8_t v)
{
    s.push_back(static_cast<char>(v));
}

void
putU32(std::string &s, std::uint32_t v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::string &s, std::uint64_t v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putBytes(std::string &s, const std::string &b)
{
    putU32(s, static_cast<std::uint32_t>(b.size()));
    s.append(b);
}

/** Bounds-checked reader over one frame body. */
struct Cursor
{
    const char *p;
    std::size_t left;
    bool ok = true;

    template <typename T> T
    fixed()
    {
        T v{};
        if (left < sizeof(T)) {
            ok = false;
            return v;
        }
        std::memcpy(&v, p, sizeof(T));
        p += sizeof(T);
        left -= sizeof(T);
        return v;
    }
    std::uint8_t u8() { return fixed<std::uint8_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }

    std::string
    bytes()
    {
        std::uint32_t n = u32();
        if (!ok || left < n) {
            ok = false;
            return "";
        }
        std::string out(p, n);
        p += n;
        left -= n;
        return out;
    }
};

/// @}

/** @return a complete frame: length prefix + type byte + body. */
std::string
makeFrame(FrameType t, const std::string &body)
{
    std::string f;
    f.reserve(5 + body.size());
    putU32(f, static_cast<std::uint32_t>(1 + body.size()));
    putU8(f, static_cast<std::uint8_t>(t));
    f.append(body);
    return f;
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
setCloexec(int fd)
{
    int flags = ::fcntl(fd, F_GETFD, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

/** @return a connected-or-connecting AF_UNIX fd, or -1. */
int
unixSocket()
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (!setNonBlocking(fd) || !setCloexec(fd)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
fillAddr(const std::string &path, sockaddr_un &addr)
{
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

std::string
defaultSocketPath(const std::string &spool_dir)
{
    return spool_dir + "/daemon.sock";
}

/*
 * ---------------------------------------------------------------
 * Poller: epoll(7) over the listener, the wake pipe and every peer.
 * ---------------------------------------------------------------
 */

struct TransportServer::Poller
{
    struct Event
    {
        int fd;
        bool readable;
        bool writable;
        bool error;
    };

    Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

    ~Poller()
    {
        if (epfd_ >= 0)
            ::close(epfd_);
    }

    /** @return whether the epoll instance exists. */
    bool ok() const { return epfd_ >= 0; }

    void
    add(int fd, bool rd, bool wr)
    {
        interest_[fd] = {rd, wr};
        ctl(EPOLL_CTL_ADD, fd, rd, wr);
    }

    void
    mod(int fd, bool rd, bool wr)
    {
        auto it = interest_.find(fd);
        if (it == interest_.end())
            return add(fd, rd, wr);
        if (it->second.first == rd && it->second.second == wr)
            return;
        it->second = {rd, wr};
        ctl(EPOLL_CTL_MOD, fd, rd, wr);
    }

    void
    del(int fd)
    {
        interest_.erase(fd);
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    }

    void
    wait(std::vector<Event> &out, int timeout_ms)
    {
        out.clear();
        epoll_event evs[64];
        int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
        for (int i = 0; i < n; ++i) {
            out.push_back({evs[i].data.fd,
                           (evs[i].events & EPOLLIN) != 0,
                           (evs[i].events & EPOLLOUT) != 0,
                           (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0});
        }
    }

  private:
    void
    ctl(int op, int fd, bool rd, bool wr)
    {
        epoll_event ev{};
        ev.events = (rd ? EPOLLIN : 0u) | (wr ? EPOLLOUT : 0u);
        ev.data.fd = fd;
        ::epoll_ctl(epfd_, op, fd, &ev);
    }

    int epfd_;
    /** fd -> (want_read, want_write), so an unchanged interest set
     *  costs no EPOLL_CTL_MOD call. */
    std::unordered_map<int, std::pair<bool, bool>> interest_;
};

/*
 * ---------------------------------------------------------------
 * TransportServer
 * ---------------------------------------------------------------
 */

struct TransportServer::Conn
{
    int fd;
    std::string in;           //!< unparsed inbound bytes
    std::size_t parsed = 0;   //!< in[0..parsed) already consumed
    std::deque<std::string> out;
    std::size_t outBytes = 0;  //!< total queued (minus outOffset)
    std::size_t outOffset = 0; //!< sent bytes of out.front()
    std::unordered_set<std::uint64_t> watched;
    Clock::time_point lastRecv;
    bool readPaused = false;
    bool pingOutstanding = false;
    /**
     * Condemned but not yet destroyed: set by doomConn() wherever a
     * fatal condition is found while a caller still holds this Conn
     * (send error inside enqueueFrame, hard-cap overflow, protocol
     * error mid-parse).  The fd is closed and the Conn freed only by
     * sweepDoomed(), from the event loop's top level.
     */
    bool doomed = false;
};

TransportServer::TransportServer(TransportConfig cfg, SubmitFn on_submit,
                                 StateFn probe_state)
    : cfg_(std::move(cfg)), onSubmit_(std::move(on_submit)),
      probeState_(std::move(probe_state))
{
}

TransportServer::~TransportServer()
{
    stop();
}

bool
TransportServer::start()
{
    sockaddr_un addr;
    if (!fillAddr(cfg_.socketPath, addr)) {
        vpc_warn("transport: socket path '{}' too long for AF_UNIX "
                 "({} byte limit); socket transport disabled",
                 cfg_.socketPath, sizeof(addr.sun_path) - 1);
        return false;
    }
    poller_ = std::make_unique<Poller>();
    if (!poller_->ok()) {
        vpc_warn("transport: epoll_create1 failed: {}; socket "
                 "transport disabled", std::strerror(errno));
        poller_.reset();
        return false;
    }
    // The caller holds the spool's pid fence, so any existing socket
    // file is a dead daemon's leftover — unlink and rebind.
    ::unlink(cfg_.socketPath.c_str());
    listenFd_ = unixSocket();
    if (listenFd_ < 0)
        return false;
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 128) != 0) {
        vpc_warn("transport: cannot bind '{}': {}", cfg_.socketPath,
                 std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);
    setCloexec(wakeRead_);
    setCloexec(wakeWrite_);

    poller_->add(listenFd_, true, false);
    poller_->add(wakeRead_, true, false);

    stop_.store(false);
    thread_ = std::thread([this] { loop(); });
    started_ = true;
    return true;
}

void
TransportServer::stop()
{
    if (!started_)
        return;
    stop_.store(true);
    wake();
    if (thread_.joinable())
        thread_.join();
    for (auto &[fd, c] : conns_)
        ::close(fd);
    conns_.clear();
    watchers_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
    wakeRead_ = wakeWrite_ = -1;
    ::unlink(cfg_.socketPath.c_str());
    poller_.reset();
    started_ = false;
}

void
TransportServer::wake()
{
    if (wakeWrite_ < 0)
        return;
    char b = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wakeWrite_, &b, 1);
}

void
TransportServer::publishCompletion(std::uint64_t digest, JobState st,
                                   const std::string &reason)
{
    {
        std::lock_guard<std::mutex> lk(inboxMu_);
        inbox_.push_back({digest, st, reason});
    }
    wake();
}

void
TransportServer::disconnectAll()
{
    {
        std::lock_guard<std::mutex> lk(inboxMu_);
        disconnectRequested_ = true;
    }
    wake();
}

void
TransportServer::loop()
{
    std::vector<Poller::Event> events;
    const int tick_ms = static_cast<int>(
        std::min<std::uint64_t>(std::max<std::uint64_t>(
            cfg_.heartbeatMs / 2, 10), 1000));
    while (!stop_.load(std::memory_order_acquire)) {
        poller_->wait(events, tick_ms);
        if (stop_.load(std::memory_order_acquire))
            break;
        for (const Poller::Event &ev : events) {
            if (ev.fd == listenFd_) {
                acceptAll();
                continue;
            }
            if (ev.fd == wakeRead_) {
                char buf[64];
                while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
                }
                continue;
            }
            auto it = conns_.find(ev.fd);
            if (it == conns_.end())
                continue;
            Conn &c = *it->second;
            if (c.doomed)
                continue;
            if (ev.error) {
                doomConn(c);
                continue;
            }
            if (ev.writable)
                flushConn(c);
            if (ev.readable)
                readConn(c);
        }
        drainCompletions();
        heartbeat();
        sweepDoomed();
    }
}

void
TransportServer::acceptAll()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or a transient error: try next loop
        if (!setNonBlocking(fd) || !setCloexec(fd)) {
            ::close(fd);
            continue;
        }
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->lastRecv = Clock::now();
        conns_.emplace(fd, std::move(c));
        poller_->add(fd, true, false);
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    }
}

void
TransportServer::doomConn(Conn &c)
{
    if (c.doomed)
        return;
    c.doomed = true;
    doomedFds_.push_back(c.fd);
    // Stop all polling on a doomed fd so it cannot generate further
    // events (or be flushed/read) before the sweep destroys it.
    poller_->mod(c.fd, false, false);
}

void
TransportServer::sweepDoomed()
{
    if (doomedFds_.empty())
        return;
    // closeConn() may only run here: no caller holds a Conn reference
    // and no conns_ iteration is in progress.
    for (int fd : doomedFds_)
        closeConn(fd);
    doomedFds_.clear();
}

void
TransportServer::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    for (std::uint64_t d : it->second->watched) {
        auto w = watchers_.find(d);
        if (w == watchers_.end())
            continue;
        std::erase(w->second, fd);
        if (w->second.empty())
            watchers_.erase(w);
    }
    poller_->del(fd);
    ::close(fd);
    conns_.erase(it);
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
}

void
TransportServer::updateInterest(Conn &c)
{
    poller_->mod(c.fd, !c.readPaused, c.outBytes > 0);
}

void
TransportServer::enqueueFrame(Conn &c, std::string frame)
{
    if (c.doomed)
        return; // the sweep will drop the queue with the Conn
    c.outBytes += frame.size();
    c.out.push_back(std::move(frame));
    stats_.framesOut.fetch_add(1, std::memory_order_relaxed);
    flushConn(c); // opportunistic: most frames fit the socket buffer
}

void
TransportServer::flushConn(Conn &c)
{
    if (c.doomed)
        return;
    while (!c.out.empty()) {
        const std::string &f = c.out.front();
        ssize_t n = ::send(c.fd, f.data() + c.outOffset,
                           f.size() - c.outOffset, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            doomConn(c);
            return;
        }
        c.outOffset += static_cast<std::size_t>(n);
        c.outBytes -= static_cast<std::size_t>(n);
        if (c.outOffset == f.size()) {
            c.out.pop_front();
            c.outOffset = 0;
        }
    }
    // Backpressure: a peer not draining its socket stops being read
    // (its submits throttle) and is dropped past the hard cap.
    if (c.outBytes > cfg_.writeHardCap) {
        stats_.dropped.fetch_add(1, std::memory_order_relaxed);
        vpc_warn("transport: dropping connection {} ({} bytes "
                 "undrained)", c.fd, c.outBytes);
        doomConn(c);
        return;
    }
    // Hysteresis: pause reads above the high-water mark, resume only
    // once the queue has drained to half of it.
    bool pause = c.readPaused;
    if (c.outBytes > cfg_.writeHighWater)
        pause = true;
    else if (c.outBytes <= cfg_.writeHighWater / 2)
        pause = false;
    if (pause && !c.readPaused)
        stats_.backpressured.fetch_add(1, std::memory_order_relaxed);
    c.readPaused = pause;
    updateInterest(c);
}

void
TransportServer::readConn(Conn &c)
{
    char buf[64 * 1024];
    for (;;) {
        ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0) {
            doomConn(c);
            return;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            doomConn(c);
            return;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        c.lastRecv = Clock::now();
        c.pingOutstanding = false;
        if (c.readPaused)
            break; // honor backpressure promptly
    }
    // Parse every complete frame accumulated so far.  Stop as soon as
    // the Conn is doomed — a handler's reply may have hit a send
    // error or the hard cap.
    while (!c.doomed && c.in.size() - c.parsed >= 4) {
        std::uint32_t len;
        std::memcpy(&len, c.in.data() + c.parsed, 4);
        if (len == 0 || len > kMaxFrameBytes) {
            vpc_warn("transport: protocol error from fd {} (frame "
                     "length {})", c.fd, len);
            doomConn(c);
            return;
        }
        if (c.in.size() - c.parsed < 4u + len)
            break;
        const char *body = c.in.data() + c.parsed + 5;
        std::uint8_t type =
            static_cast<std::uint8_t>(c.in[c.parsed + 4]);
        c.parsed += 4u + len;
        stats_.framesIn.fetch_add(1, std::memory_order_relaxed);
        if (!handleFrame(c, type, body, len - 1)) {
            doomConn(c);
            return;
        }
    }
    if (c.parsed > 0) {
        c.in.erase(0, c.parsed);
        c.parsed = 0;
    }
}

bool
TransportServer::handleFrame(Conn &c, std::uint8_t type,
                             const char *body, std::size_t len)
{
    Cursor cur{body, len};
    switch (static_cast<FrameType>(type)) {
    case FrameType::Hello: {
        std::uint32_t ver = cur.u32();
        if (!cur.ok || ver != kTransportProtoVersion) {
            vpc_warn("transport: peer speaks protocol {} (want {})",
                     ver, kTransportProtoVersion);
            return false;
        }
        std::string ack;
        putU32(ack, kTransportProtoVersion);
        putU64(ack, static_cast<std::uint64_t>(::getpid()));
        enqueueFrame(c, makeFrame(FrameType::HelloAck, ack));
        return true;
    }
    case FrameType::SubmitBatch: {
        std::uint32_t n = cur.u32();
        if (!cur.ok || n > kMaxBatchJobs)
            return false;
        std::string ack;
        putU32(ack, n);
        for (std::uint32_t i = 0; i < n; ++i) {
            std::string text = cur.bytes();
            if (!cur.ok)
                return false;
            std::uint64_t digest = 0;
            JobState st = onSubmit_(text, digest);
            if (st == JobState::Absent) {
                digest = 0;
                stats_.submitRejects.fetch_add(
                    1, std::memory_order_relaxed);
            } else {
                stats_.submits.fetch_add(1, std::memory_order_relaxed);
                if (st != JobState::Done && st != JobState::Failed) {
                    // Not yet terminal: this peer gets the push.
                    if (c.watched.insert(digest).second)
                        watchers_[digest].push_back(c.fd);
                }
            }
            putU64(ack, digest);
            putU8(ack, static_cast<std::uint8_t>(st));
        }
        enqueueFrame(c, makeFrame(FrameType::SubmitAck, ack));
        return true;
    }
    case FrameType::Watch: {
        std::uint32_t n = cur.u32();
        if (!cur.ok || n > 1u << 20)
            return false;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint64_t d = cur.u64();
            if (!cur.ok)
                return false;
            // Already settled?  Push the completion immediately so a
            // watcher can never miss a terminal transition.
            std::string reason;
            JobState st = probeState_(d, reason);
            if (st == JobState::Done || st == JobState::Failed) {
                std::string b;
                putU64(b, d);
                putU8(b, static_cast<std::uint8_t>(st));
                putBytes(b, reason);
                enqueueFrame(c, makeFrame(FrameType::Complete, b));
                stats_.completionsPushed.fetch_add(
                    1, std::memory_order_relaxed);
                continue;
            }
            if (c.watched.insert(d).second)
                watchers_[d].push_back(c.fd);
        }
        return true;
    }
    case FrameType::Ping: {
        std::uint64_t token = cur.u64();
        if (!cur.ok)
            return false;
        std::string b;
        putU64(b, token);
        enqueueFrame(c, makeFrame(FrameType::Pong, b));
        return true;
    }
    case FrameType::Pong:
        return cur.u64(), cur.ok; // liveness already noted on recv
    default:
        vpc_warn("transport: unknown frame type {} from fd {}",
                 unsigned(type), c.fd);
        return false;
    }
}

void
TransportServer::drainCompletions()
{
    std::vector<PendingCompletion> batch;
    bool disconnect = false;
    {
        std::lock_guard<std::mutex> lk(inboxMu_);
        batch.swap(inbox_);
        disconnect = disconnectRequested_;
        disconnectRequested_ = false;
    }
    for (const PendingCompletion &pc : batch) {
        auto w = watchers_.find(pc.digest);
        if (w == watchers_.end())
            continue;
        std::vector<int> fds = std::move(w->second);
        watchers_.erase(w);
        std::string b;
        putU64(b, pc.digest);
        putU8(b, static_cast<std::uint8_t>(pc.state));
        putBytes(b, pc.reason);
        std::string frame = makeFrame(FrameType::Complete, b);
        for (int fd : fds) {
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            it->second->watched.erase(pc.digest);
            enqueueFrame(*it->second, frame);
            stats_.completionsPushed.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    if (disconnect) {
        std::vector<int> fds;
        fds.reserve(conns_.size());
        for (const auto &[fd, c] : conns_)
            fds.push_back(fd);
        for (int fd : fds)
            closeConn(fd);
    }
}

void
TransportServer::heartbeat()
{
    if (cfg_.heartbeatMs == 0)
        return;
    Clock::time_point now = Clock::now();
    const auto idle = std::chrono::milliseconds(cfg_.heartbeatMs);
    std::vector<int> dead;
    for (auto &[fd, cp] : conns_) {
        Conn &c = *cp;
        if (c.doomed)
            continue; // already condemned; the sweep handles it
        if (now - c.lastRecv > 3 * idle) {
            dead.push_back(fd);
            continue;
        }
        // Ping on receive silence alone: a client that only receives
        // a completion stream never sends unprompted, and its Pong is
        // what keeps it alive.
        if (now - c.lastRecv > idle && !c.pingOutstanding) {
            std::string b;
            putU64(b, static_cast<std::uint64_t>(
                          now.time_since_epoch().count()));
            c.pingOutstanding = true;
            enqueueFrame(c, makeFrame(FrameType::Ping, b));
        }
    }
    for (int fd : dead) {
        stats_.deadPeers.fetch_add(1, std::memory_order_relaxed);
        vpc_warn("transport: closing silent peer fd {}", fd);
        closeConn(fd);
    }
}

/*
 * ---------------------------------------------------------------
 * TransportClient
 * ---------------------------------------------------------------
 */

TransportClient::TransportClient(TransportConfig cfg)
    : cfg_(std::move(cfg))
{
}

TransportClient::~TransportClient()
{
    close();
}

void
TransportClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
TransportClient::markDead()
{
    dead_ = true;
    close();
}

bool
TransportClient::connect(std::uint64_t timeout_ms)
{
    close();
    dead_ = false;
    daemonPid_ = 0;
    in_.clear();
    completions_.clear();
    haveAcks_ = false;
    pingOutstanding_ = false;

    sockaddr_un addr;
    if (!fillAddr(cfg_.socketPath, addr))
        return false;
    fd_ = unixSocket();
    if (fd_ < 0)
        return false;
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS && errno != EAGAIN) {
            close();
            return false;
        }
        pollfd p{fd_, POLLOUT, 0};
        if (::poll(&p, 1, static_cast<int>(timeout_ms)) <= 0) {
            close();
            return false;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            close();
            return false;
        }
    }
    lastTraffic_ = Clock::now();

    std::string hello;
    putU32(hello, kTransportProtoVersion);
    if (!sendAll(makeFrame(FrameType::Hello, hello), timeout_ms)) {
        close();
        return false;
    }
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (daemonPid_ == 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now()).count();
        if (left <= 0 || !pump(static_cast<std::uint64_t>(left))) {
            close();
            return false;
        }
        if (dead_)
            return false;
    }
    return true;
}

bool
TransportClient::sendAll(const std::string &frame,
                         std::uint64_t timeout_ms)
{
    if (fd_ < 0 || dead_)
        return false;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                auto left = std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline - Clock::now())
                    .count();
                if (left <= 0)
                    return false;
                pollfd p{fd_, POLLOUT, 0};
                if (::poll(&p, 1, static_cast<int>(left)) <= 0)
                    return false;
                continue;
            }
            markDead();
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    lastTraffic_ = Clock::now();
    return true;
}

bool
TransportClient::handleFrame(std::uint8_t type, const char *body,
                             std::size_t len)
{
    Cursor cur{body, len};
    switch (static_cast<FrameType>(type)) {
    case FrameType::HelloAck: {
        std::uint32_t ver = cur.u32();
        std::uint64_t pid = cur.u64();
        if (!cur.ok || ver != kTransportProtoVersion)
            return false;
        daemonPid_ = pid;
        return true;
    }
    case FrameType::SubmitAck: {
        std::uint32_t n = cur.u32();
        if (!cur.ok || n > kMaxBatchJobs)
            return false;
        acks_.clear();
        acks_.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            Ack a;
            a.digest = cur.u64();
            a.state = static_cast<JobState>(cur.u8());
            if (!cur.ok)
                return false;
            acks_.push_back(a);
        }
        haveAcks_ = true;
        return true;
    }
    case FrameType::Complete: {
        Completion comp;
        comp.digest = cur.u64();
        comp.state = static_cast<JobState>(cur.u8());
        comp.reason = cur.bytes();
        if (!cur.ok)
            return false;
        completions_.push_back(std::move(comp));
        return true;
    }
    case FrameType::Ping: {
        std::uint64_t token = cur.u64();
        if (!cur.ok)
            return false;
        std::string b;
        putU64(b, token);
        return sendAll(makeFrame(FrameType::Pong, b), 1000);
    }
    case FrameType::Pong:
        pingOutstanding_ = false;
        return cur.u64(), cur.ok;
    default:
        return false; // a server never sends anything else
    }
}

bool
TransportClient::pump(std::uint64_t timeout_ms)
{
    if (fd_ < 0 || dead_)
        return false;
    // Heartbeat bookkeeping: ping a silent daemon, declare it dead
    // after three unanswered intervals.
    if (cfg_.heartbeatMs > 0) {
        auto idle = Clock::now() - lastTraffic_;
        if (idle > 3 * std::chrono::milliseconds(cfg_.heartbeatMs)) {
            markDead();
            return false;
        }
        if (idle > std::chrono::milliseconds(cfg_.heartbeatMs) &&
            !pingOutstanding_) {
            std::string b;
            putU64(b, ++pingToken_);
            pingOutstanding_ = true;
            if (!sendAll(makeFrame(FrameType::Ping, b), 1000))
                return false;
        }
        timeout_ms = std::min<std::uint64_t>(
            timeout_ms, std::max<std::uint64_t>(cfg_.heartbeatMs / 2,
                                                10));
    }
    pollfd p{fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(timeout_ms));
    if (rc < 0) {
        markDead();
        return false;
    }
    if (rc > 0 && (p.revents & (POLLIN | POLLERR | POLLHUP))) {
        char buf[64 * 1024];
        for (;;) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0) {
                markDead(); // daemon closed (or was SIGKILLed)
                return false;
            }
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                markDead();
                return false;
            }
            in_.append(buf, static_cast<std::size_t>(n));
            lastTraffic_ = Clock::now();
        }
    }
    // Dispatch complete frames.
    std::size_t parsed = 0;
    while (in_.size() - parsed >= 4) {
        std::uint32_t len;
        std::memcpy(&len, in_.data() + parsed, 4);
        if (len == 0 || len > kMaxFrameBytes) {
            markDead();
            return false;
        }
        if (in_.size() - parsed < 4u + len)
            break;
        std::uint8_t type = static_cast<std::uint8_t>(in_[parsed + 4]);
        const char *body = in_.data() + parsed + 5;
        parsed += 4u + len;
        if (!handleFrame(type, body, len - 1)) {
            markDead();
            return false;
        }
    }
    if (parsed > 0)
        in_.erase(0, parsed);
    return true;
}

bool
TransportClient::submitBatch(const std::vector<std::string> &encoded,
                             std::vector<Ack> &acks_out,
                             std::uint64_t timeout_ms)
{
    if (!connected())
        return false;
    acks_out.clear();
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    // Split into as many SubmitBatch frames as the server-side limits
    // (kMaxBatchJobs jobs, kMaxFrameBytes payload) require: an
    // oversized frame would be a protocol error that silently drops
    // the connection and degrades everything to the spool tier.
    std::size_t i = 0;
    while (i < encoded.size()) {
        std::string body;
        putU32(body, 0); // job count, patched once the chunk is cut
        std::uint32_t n = 0;
        while (i < encoded.size() && n < kMaxBatchJobs) {
            const std::string &text = encoded[i];
            // Frame payload = type byte + body so far + this record.
            if (1 + body.size() + 4 + text.size() > kMaxFrameBytes) {
                if (n == 0) {
                    vpc_warn("transport: job record of {} bytes "
                             "cannot fit one frame ({} byte limit); "
                             "falling back to spool submit",
                             text.size(), kMaxFrameBytes);
                    return false;
                }
                break;
            }
            putBytes(body, text);
            ++n;
            ++i;
        }
        std::memcpy(body.data(), &n, sizeof(n));
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now()).count();
        if (left <= 0)
            return false;
        haveAcks_ = false;
        if (!sendAll(makeFrame(FrameType::SubmitBatch, body),
                     static_cast<std::uint64_t>(left)))
            return false;
        while (!haveAcks_) {
            left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now()).count();
            if (left <= 0)
                return false;
            if (!pump(static_cast<std::uint64_t>(left)) && dead_)
                return false;
        }
        acks_out.insert(acks_out.end(), acks_.begin(), acks_.end());
    }
    return true;
}

bool
TransportClient::watch(const std::vector<std::uint64_t> &digests)
{
    if (!connected())
        return false;
    // Chunk like submitBatch: stay well under the server's per-frame
    // Watch count (1M) and byte limits whatever the list size.
    std::size_t i = 0;
    do {
        std::size_t n = std::min<std::size_t>(digests.size() - i,
                                              kMaxBatchJobs);
        std::string body;
        putU32(body, static_cast<std::uint32_t>(n));
        for (std::size_t k = 0; k < n; ++k)
            putU64(body, digests[i + k]);
        i += n;
        if (!sendAll(makeFrame(FrameType::Watch, body), 5000))
            return false;
    } while (i < digests.size());
    return true;
}

bool
TransportClient::nextCompletion(Completion &out,
                                std::uint64_t timeout_ms)
{
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        if (!completions_.empty()) {
            out = std::move(completions_.front());
            completions_.pop_front();
            return true;
        }
        if (dead_ || fd_ < 0)
            return false;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now()).count();
        if (left <= 0)
            return false;
        if (!pump(static_cast<std::uint64_t>(left)) && dead_)
            return false;
    }
}

} // namespace vpc
