/**
 * @file
 * Event-driven socket transport for the sweep service.
 *
 * PR 6's client/daemon rendezvous was the shared-filesystem spool
 * alone: every submit a directory rename, every result discovered by
 * client-side polling.  That is crash-safe but slow to *notice*
 * things — dispatch latency is capped by the poll interval and every
 * poll is a directory scan, which collapses under thousands of small
 * jobs.  This transport makes the hot path push-driven while leaving
 * the spool as the durability layer:
 *
 *  - TransportServer: a non-blocking Unix-domain socket listener run
 *    by the daemon on its own thread, multiplexed by epoll(7) (the
 *    service is Linux-only).  Socket submits are handed to the
 *    daemon, which spools + journals them *before* the ack frame is
 *    sent, so the SIGKILL drill and exactly-once semantics are
 *    unchanged — a job acked over the socket is exactly as durable as
 *    one renamed into pending/.
 *  - TransportClient: a blocking-with-deadline client used by
 *    ServiceClient, vpcsubmit and the saturation bench.  Completions
 *    are *pushed* (no polling): every submitted or watched digest gets
 *    a Complete frame the instant the daemon settles it.
 *
 * Wire format: length-prefixed binary frames on a SOCK_STREAM Unix
 * socket (same host, so native byte order):
 *
 *     [u32 payload_len][u8 type][payload ...]
 *
 *     Hello        c->d  u32 proto_version
 *     HelloAck     d->c  u32 proto_version, u64 daemon_pid
 *     SubmitBatch  c->d  u32 n, n x { u32 len, bytes job_codec text }
 *     SubmitAck    d->c  u32 n, n x { u64 digest, u8 job_state }
 *                        (index-aligned with the batch; digest 0 +
 *                        state Absent = rejected/undecodable)
 *     Watch        c->d  u32 n, n x u64 digest
 *     Complete     d->c  u64 digest, u8 job_state, u32 len, bytes
 *                        reason (quarantine reason for Failed, "")
 *     Ping / Pong  both  u64 token
 *
 * Frames larger than kMaxFrameBytes, or any unparseable frame, are a
 * protocol error: the connection is closed (the peer degrades to the
 * spool path — every transport failure mode ends in a slower but
 * bit-identical result, never a lost or duplicated job).
 *
 * Flow control: each server connection owns a bounded write queue.
 * Above the high-water mark the server stops *reading* from that
 * connection (backpressure: a client flooding submits faster than it
 * drains acks/completions is throttled by its own socket); above the
 * hard cap the connection is dropped.  Heartbeats: the server pings
 * a peer it has heard nothing from for heartbeatMs — however much it
 * is sending, so a client that only receives completions still
 * answers — and closes peers silent for 3 x heartbeatMs; the client
 * does the same toward the daemon, so a wedged (not just dead) peer
 * is detected on both sides.  A SIGKILLed daemon is detected
 * immediately via EOF/ECONNRESET.
 */

#ifndef VPC_SERVICE_TRANSPORT_HH
#define VPC_SERVICE_TRANSPORT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/spool.hh"

namespace vpc
{

/** Bump when the frame set or any frame layout changes. */
constexpr std::uint32_t kTransportProtoVersion = 1;

/** Largest accepted frame payload (a batch of ~4k typical jobs). */
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/** Most jobs in one SubmitBatch frame (clients split larger ones). */
constexpr std::uint32_t kMaxBatchJobs = 65536;

/** @return the default socket path for @p spool_dir. */
std::string defaultSocketPath(const std::string &spool_dir);

/** Tuning shared by server and client. */
struct TransportConfig
{
    std::string socketPath;
    std::uint64_t heartbeatMs = 2000; //!< ping idle peers this often
    /** Server write-queue backpressure thresholds, bytes/connection. */
    std::size_t writeHighWater = 4u << 20;
    std::size_t writeHardCap = 16u << 20;
};

/** Monotonic transport-server counters (read any time). */
struct TransportStats
{
    std::atomic<std::uint64_t> accepted{0};   //!< connections accepted
    std::atomic<std::uint64_t> closed{0};     //!< connections closed
    std::atomic<std::uint64_t> framesIn{0};
    std::atomic<std::uint64_t> framesOut{0};
    std::atomic<std::uint64_t> submits{0};    //!< jobs admitted
    std::atomic<std::uint64_t> submitRejects{0}; //!< undecodable jobs
    std::atomic<std::uint64_t> completionsPushed{0};
    std::atomic<std::uint64_t> backpressured{0}; //!< reads paused
    std::atomic<std::uint64_t> dropped{0};    //!< conns over hard cap
    std::atomic<std::uint64_t> deadPeers{0};  //!< heartbeat expiries
};

/**
 * The daemon-side listener (see file comment).  All socket work runs
 * on one internal thread; the daemon interacts through two
 * thread-safe entry points: the submit callback (invoked *on* the
 * transport thread) and publishCompletion() (invoked from the
 * daemon's scheduling thread).
 */
class TransportServer
{
  public:
    /**
     * Durably admit one job submitted over the socket.  Runs on the
     * transport thread.  Must decode @p text, fill @p digest_out,
     * spool + journal the job, and return the job's state after
     * admission (the ack payload).  Return JobState::Absent (digest 0)
     * for an undecodable/rejected payload.
     */
    using SubmitFn =
        std::function<JobState(const std::string &text,
                               std::uint64_t &digest_out)>;

    /**
     * Probe the terminal state of a watched digest (Watch frames for
     * jobs that may already be settled).  Fill @p reason_out for
     * Failed.  Runs on the transport thread.
     */
    using StateFn = std::function<JobState(std::uint64_t digest,
                                           std::string &reason_out)>;

    TransportServer(TransportConfig cfg, SubmitFn on_submit,
                    StateFn probe_state);
    ~TransportServer();

    TransportServer(const TransportServer &) = delete;
    TransportServer &operator=(const TransportServer &) = delete;

    /**
     * Bind the socket (unlinking any stale file — the caller must
     * already hold the spool's pid fence), listen, and start the
     * event loop thread.  @return false when the socket cannot be
     * created (path too long, no epoll instance, bind failure); the
     * service then runs spool-only.
     */
    bool start();

    /** Stop the loop, close everything, unlink the socket file. */
    void stop();

    /**
     * Queue a settled job's Complete frame for every connection
     * watching @p digest.  Thread-safe; wakes the event loop.
     */
    void publishCompletion(std::uint64_t digest, JobState st,
                           const std::string &reason);

    /**
     * Close every client connection (graceful daemon shutdown: peers
     * see EOF and degrade to the spool/local path).  Thread-safe.
     */
    void disconnectAll();

    const TransportStats &stats() const { return stats_; }
    const std::string &socketPath() const { return cfg_.socketPath; }
    bool listening() const { return listenFd_ >= 0; }

  private:
    struct Conn;
    struct Poller;

    void loop();
    void acceptAll();
    void readConn(Conn &c);
    void flushConn(Conn &c);
    bool handleFrame(Conn &c, std::uint8_t type,
                     const char *body, std::size_t len);
    void enqueueFrame(Conn &c, std::string frame);
    void updateInterest(Conn &c);
    void doomConn(Conn &c);
    void sweepDoomed();
    void closeConn(int fd);
    void drainCompletions();
    void heartbeat();
    void wake();

    TransportConfig cfg_;
    SubmitFn onSubmit_;
    StateFn probeState_;
    TransportStats stats_;

    int listenFd_ = -1;
    int wakeRead_ = -1, wakeWrite_ = -1;
    std::unique_ptr<Poller> poller_;
    std::unordered_map<int, std::unique_ptr<Conn>> conns_;
    /** digest -> fds to notify on completion (loop thread only). */
    std::unordered_map<std::uint64_t, std::vector<int>> watchers_;
    /**
     * Connections condemned mid-callback (send error, hard cap,
     * protocol error).  flushConn()/enqueueFrame() run while callers
     * hold a Conn reference or iterate conns_, so they must never
     * destroy the Conn themselves: they doomConn() it and the event
     * loop sweeps this list once per iteration, when no frame is in
     * flight (loop thread only).
     */
    std::vector<int> doomedFds_;

    /** Cross-thread inbox: completions + control flags. */
    struct PendingCompletion
    {
        std::uint64_t digest;
        JobState state;
        std::string reason;
    };
    std::mutex inboxMu_;
    std::vector<PendingCompletion> inbox_;
    bool disconnectRequested_ = false;

    std::atomic<bool> stop_{false};
    std::thread thread_;
    bool started_ = false;
};

/**
 * Client end of the transport (see file comment).  Single-threaded:
 * every call pumps the socket with a deadline; completions pushed by
 * the daemon while waiting for something else are buffered and
 * returned by nextCompletion() in arrival order.
 */
class TransportClient
{
  public:
    explicit TransportClient(TransportConfig cfg);
    ~TransportClient();

    TransportClient(const TransportClient &) = delete;
    TransportClient &operator=(const TransportClient &) = delete;

    /** One submit's acknowledgement. */
    struct Ack
    {
        std::uint64_t digest = 0;
        JobState state = JobState::Absent;
    };

    /** One pushed completion notification. */
    struct Completion
    {
        std::uint64_t digest = 0;
        JobState state = JobState::Absent;
        std::string reason;
    };

    /**
     * Connect and complete the Hello handshake.
     * @return false when no daemon is listening (or the handshake
     *         timed out); the client is then unusable until the next
     *         connect()
     */
    bool connect(std::uint64_t timeout_ms = 1000);

    /** @return true while the connection looks alive. */
    bool connected() const { return fd_ >= 0 && !dead_; }

    /** @return true once the peer was detected dead (EOF, reset, or
     *          heartbeat expiry); the fallback paths take over. */
    bool dead() const { return dead_; }

    /** @return the daemon pid from the handshake (0 before it). */
    std::uint64_t daemonPid() const { return daemonPid_; }

    /**
     * Submit a batch of encoded job records (job_codec text) and wait
     * for the index-aligned acks.  Batches larger than the server's
     * per-frame limits (kMaxBatchJobs jobs, kMaxFrameBytes payload)
     * are transparently split into multiple SubmitBatch frames; a
     * single record too big for one frame fails the call client-side
     * instead of tripping a server protocol error.  Submitted digests
     * are implicitly watched: a Complete frame will follow for every
     * ack that was not already terminal.
     *
     * @return false on timeout, dead peer, or an oversized record
     *         (@p acks_out then holds only the chunks acked so far)
     */
    bool submitBatch(const std::vector<std::string> &encoded_jobs,
                     std::vector<Ack> &acks_out,
                     std::uint64_t timeout_ms = 5000);

    /** Subscribe to completion pushes for @p digests (jobs submitted
     *  in an earlier session; already-settled ones complete at once). */
    bool watch(const std::vector<std::uint64_t> &digests);

    /**
     * Return the next buffered or arriving completion.  Answers the
     * daemon's heartbeat pings while waiting and maintains its own
     * (a silent daemon is declared dead after 3 x heartbeatMs).
     *
     * @return false on timeout or dead peer
     */
    bool nextCompletion(Completion &out, std::uint64_t timeout_ms);

    void close();

  private:
    bool sendAll(const std::string &frame, std::uint64_t timeout_ms);
    bool pump(std::uint64_t timeout_ms); //!< read + dispatch once
    bool handleFrame(std::uint8_t type, const char *body,
                     std::size_t len);
    void markDead();

    TransportConfig cfg_;
    int fd_ = -1;
    bool dead_ = false;
    std::uint64_t daemonPid_ = 0;
    std::string in_;
    std::deque<Completion> completions_;
    bool haveAcks_ = false;
    std::vector<Ack> acks_;
    std::chrono::steady_clock::time_point lastTraffic_;
    bool pingOutstanding_ = false;
    std::uint64_t pingToken_ = 0;
};

} // namespace vpc

#endif // VPC_SERVICE_TRANSPORT_HH
