// perfbench_load — the load generator and the in-process "DB rung" of
// the perfbench benchmark (see perfbench/README.md). run.py drives it;
// it prints one JSON document on stdout and writes per-request sample
// files into --out.
//
//   perfbench_load net --port P --server-pid PID --out DIR [workload]
//                      [--phase KIND:SECONDS:TRACE_EVERY]...
//   perfbench_load db --out DIR --seconds S [workload]
//
// Workload flags: --keys N --value-size B --get F --scan F
// --dist uniform|zipf --seed S --warmup-ops N --open-rate OPS_PER_S.
// Connections, pipeline depth, shard count, zipfian theta and scan length
// are fixed (config.h) and reported in the JSON document.
//
// `net` opens kConnections connections (one thread each), preloads every
// key, runs --warmup-ops operations of the mix closed-loop, and then each
// --phase in order: KIND is `open` (requests sent on a fixed schedule at
// --open-rate, each timed from when it was due) or `closed` (flights of
// kPipeline pipelined requests per connection). TRACE_EVERY > 0 sends
// every Nth keyed request as a traced frame, whose response carries the
// server's service time. STATS and the server's peak RSS are read
// before the first phase and after every phase. During each phase the
// server's CPU time and the host's CPU steal are sampled every kWindowNs
// (the phase's "windows").
//
// `db` replays the same operation stream through an in-process DB::
// configured like one server shard, keeping the operations whose keys
// the server's ring maps to shard 0, and times every DB call.
//
// Every GET value and SCAN row is checked: a value must be the payload
// of its own key at a version that was issued for that key (see
// Payload()); a SCAN over the dense, fully preloaded keyspace must
// return exactly the next keys in order.
//
// Sample files hold one record of five little-endian uint32 per
// request: type (0 get, 1 put, 2 scan, 3 multiput), due time in µs from
// the phase start, latency in ns from due to response (kFailed when the
// request failed), sender lag in ns (send time minus due time), and
// client round trip minus server-reported time in ns for traced frames
// (kUntraced otherwise).

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "config.h"
#include "core/db.h"
#include "net/protocol.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"

using namespace cachekv;
using namespace perfbench;

namespace {

constexpr uint32_t kFailed = 0xFFFFFFFFu;
constexpr uint32_t kUntraced = 0xFFFFFFFFu;
enum OpType : uint32_t { kGet = 0, kPut = 1, kScan = 2, kMultiPut = 3 };

uint64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_++); }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

struct Workload {
  uint64_t keys = 20000;
  size_t value_size = 100;
  double get_frac = 0.5;
  double scan_frac = 0.0;
  bool zipf = false;
  uint64_t seed = 1;
  uint64_t warmup_ops = 0;
  double open_rate = 1000;
};

/// YCSB scrambled zipfian over [0, n): zipfian ranks (Gray et al.),
/// hashed so the hot keys spread over the keyspace.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; i++) zetan_ += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Mix64(std::min(rank, n_ - 1)) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

struct Op {
  OpType type;
  uint64_t key;
};

/// One connection's seeded operation stream; it continues across the
/// warm-up and every measured phase.
class OpStream {
 public:
  OpStream(const Workload& w, const Zipf* zipf, int conn)
      : w_(w), zipf_(zipf), rng_(Mix64(w.seed * 1000003ull + conn)) {}
  Op Next() {
    const double u = rng_.NextDouble();
    const OpType type = u < w_.get_frac                ? kGet
                        : u < w_.get_frac + w_.scan_frac ? kScan
                                                         : kPut;
    const uint64_t key =
        zipf_ != nullptr ? zipf_->Next(&rng_) : rng_.Next() % w_.keys;
    return Op{type, key};
  }

 private:
  const Workload& w_;
  const Zipf* zipf_;
  Rng rng_;
};

std::string KeyOf(uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(k));
  return buf;
}

bool ParseKey(const std::string& key, uint64_t* k) {
  if (key.size() != 16 || key.compare(0, 4, "user") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 4; i < 16; i++) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *k = v;
  return true;
}

/// The value written for key `k` at version `version`: a 24-character
/// header naming both, then filler derived from them.
std::string Payload(uint64_t k, uint32_t version, size_t size) {
  std::string v(std::max<size_t>(size, 24), '\0');
  std::snprintf(&v[0], 25, "%012llx%012x", static_cast<unsigned long long>(k),
                version);
  uint64_t state = Mix64(k * 0x100000001b3ull ^ version);
  for (size_t i = 24; i < v.size(); i++) {
    if ((i & 7) == 0) state = Mix64(state);
    v[i] = static_cast<char>('a' + ((state >> ((i & 7) * 8)) & 15));
  }
  return v;
}

/// Versions issued per key; a read may return any issued version.
class Versions {
 public:
  explicit Versions(uint64_t keys) : v_(keys) {}
  uint32_t Issue(uint64_t k) {
    return v_[k].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  uint32_t Issued(uint64_t k) const {
    return v_[k].load(std::memory_order_acquire);
  }

 private:
  std::vector<std::atomic<uint32_t>> v_;
};

bool CheckValue(const Workload& w, const Versions& versions, uint64_t k,
                const std::string& value) {
  if (value.size() != std::max<size_t>(w.value_size, 24)) return false;
  unsigned long long got_key = 0;
  unsigned int got_version = 0;
  char head[25];
  std::memcpy(head, value.data(), 24);
  head[24] = '\0';
  if (std::sscanf(head, "%12llx%12x", &got_key, &got_version) != 2) {
    return false;
  }
  if (got_key != k || got_version == 0 ||
      got_version > versions.Issued(k)) {
    return false;
  }
  return value == Payload(k, got_version, w.value_size);
}

/// Failure tallies; a request counts once, in its first matching class.
struct Failures {
  uint64_t refused = 0;    // Busy (backpressure shed)
  uint64_t error = 0;      // any other error status
  uint64_t transport = 0;  // connection lost or protocol violation
  uint64_t wrong = 0;      // wrong value, missing key or bad scan row
  std::string first;       // first failure, for the report
  void Note(const std::string& what) {
    if (first.empty()) first = what;
  }
  void Add(const Failures& o) {
    refused += o.refused;
    error += o.error;
    transport += o.transport;
    wrong += o.wrong;
    if (first.empty()) first = o.first;
  }
};

struct Sample {
  uint32_t type, due_us, latency_ns, lag_ns, queue_ns;
};

uint32_t Clamp32(uint64_t v) {
  return v >= kFailed ? kFailed - 1 : static_cast<uint32_t>(v);
}

struct Pending {
  uint64_t id;
  OpType type;
  uint64_t key;
  uint64_t due_ns;
  uint64_t sent_ns;
  bool traced;
};

/// One pipelined wire connection driven from a single thread.
class Conn {
 public:
  Conn(const Workload& w, Versions* versions, int index)
      : w_(w), versions_(versions), index_(index) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }
  bool connected() const { return fd_ >= 0; }
  size_t pending() const { return pending_.size(); }

  /// Phase bookkeeping: where records go and which requests are traced.
  void BeginPhase(uint64_t phase_start_ns, uint32_t trace_every,
                  std::vector<Sample>* records) {
    phase_start_ns_ = phase_start_ns;
    trace_every_ = trace_every;
    records_ = records;
  }

  /// Encodes one operation into the send buffer.
  void Issue(const Op& op, uint64_t due_ns) {
    const uint64_t id = next_id_++;
    net::TraceContext tc;
    if (trace_every_ > 0 && ++keyed_seq_ % trace_every_ == 0) {
      tc.traced = true;
      tc.trace_id =
          (Mix64(w_.seed ^ (static_cast<uint64_t>(index_) << 56) ^ id) &
           0xFFFFFFFFFFFFull) | 1;
    }
    const std::string key = KeyOf(op.key);
    if (op.type == kGet) {
      net::EncodeGetRequest(&out_, id, key, tc);
    } else if (op.type == kScan) {
      net::EncodeScanRequest(&out_, id, key, kScanLen, tc);
    } else {
      const uint32_t version = versions_->Issue(op.key);
      net::EncodePutRequest(&out_, id, key,
                            Payload(op.key, version, w_.value_size), tc);
    }
    pending_.push_back(Pending{id, op.type, op.key, due_ns, 0, tc.traced});
    unsent_.emplace_back(popped_ + pending_.size() - 1, out_.size());
  }

  /// Writes what the socket takes and stamps the send time of every
  /// request fully handed to the kernel. False on a transport failure.
  bool Send() {
    while (out_off_ < out_.size()) {
      const ssize_t n =
          write(fd_, out_.data() + out_off_, out_.size() - out_off_);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      out_off_ += static_cast<size_t>(n);
    }
    // A request is sent once its last byte is; its response cannot
    // have been read yet, so it is still pending.
    const uint64_t now = NowNs();
    while (!unsent_.empty() && unsent_.front().second <= out_off_) {
      pending_[unsent_.front().first - popped_].sent_ns = now;
      unsent_.pop_front();
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  /// Waits up to `timeout_ns` for the socket, then reads and settles
  /// every complete response. False on a transport failure.
  bool Pump(uint64_t timeout_ns, Failures* f) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
               0};
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
    const int rc = ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    if (rc == 0) return true;
    if (pfd.revents & POLLOUT) {
      if (!Send()) return false;
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) return true;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      decoder_.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    const uint64_t now = NowNs();
    net::Frame frame;
    for (;;) {
      const auto r = decoder_.Next(&frame);
      if (r == net::FrameDecoder::Result::kNeedMore) return true;
      if (r == net::FrameDecoder::Result::kError) {
        f->Note("frame decode error: " + decoder_.error());
        return false;
      }
      if (pending_.empty() || frame.request_id != pending_.front().id) {
        f->Note("response out of order");
        return false;
      }
      Settle(pending_.front(), frame, now, f);
      pending_.pop_front();
      popped_++;
    }
  }

  /// Fails every outstanding request (the connection is gone).
  void FailAll(Failures* f) {
    for (const Pending& p : pending_) {
      f->transport++;
      Log(p, kFailed, kUntraced);
    }
    popped_ += pending_.size();
    pending_.clear();
    unsent_.clear();
    Close();
  }

  /// Synchronous STATS round trip; the connection must be idle.
  bool Stats(std::string* json) {
    net::EncodeStatsRequest(&out_, next_id_++);
    const uint64_t deadline = NowNs() + 30'000'000'000ull;
    while (!out_.empty()) {
      if (!Send() || NowNs() > deadline) return false;
    }
    char buf[1 << 16];
    net::Frame frame;
    for (;;) {
      const auto r = decoder_.Next(&frame);
      if (r == net::FrameDecoder::Result::kFrame) {
        if (frame.op != net::Op::kStats || frame.code != net::kOk) {
          return false;
        }
        json->assign(frame.payload.data(), frame.payload.size());
        return true;
      }
      if (r == net::FrameDecoder::Result::kError) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (NowNs() > deadline || poll(&pfd, 1, 1000) < 0) return false;
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) return false;
      if (n < 0 && errno != EAGAIN && errno != EINTR) return false;
      if (n > 0) decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  void Log(const Pending& p, uint32_t latency_ns, uint32_t queue_ns) {
    if (records_ == nullptr) return;
    const uint64_t lag = p.sent_ns > p.due_ns ? p.sent_ns - p.due_ns : 0;
    records_->push_back(Sample{
        p.type,
        static_cast<uint32_t>((p.due_ns - phase_start_ns_) / 1000),
        latency_ns, Clamp32(lag), queue_ns});
  }

  void Settle(const Pending& p, const net::Frame& frame, uint64_t now,
              Failures* f) {
    bool ok = true;
    if (frame.code == net::kBusy) {
      f->refused++;
      f->Note("refused: busy");
      ok = false;
    } else if (p.type == kGet && frame.code == net::kNotFound) {
      f->wrong++;
      f->Note("GET " + KeyOf(p.key) + ": preloaded key not found");
      ok = false;
    } else if (frame.code != net::kOk) {
      f->error++;
      f->Note(std::string(net::WireCodeName(frame.code)) + ": " +
              frame.payload.ToString());
      ok = false;
    } else if (p.type == kGet) {
      if (!CheckValue(w_, *versions_, p.key, frame.payload.ToString())) {
        f->wrong++;
        f->Note("GET " + KeyOf(p.key) + ": wrong value");
        ok = false;
      }
    } else if (p.type == kScan) {
      ok = CheckScan(p.key, frame.payload, f);
    }
    uint32_t queue = kUntraced;
    if (ok && p.traced && frame.traced && p.sent_ns > 0 &&
        now > p.sent_ns) {
      const uint64_t rtt = now - p.sent_ns;
      queue = Clamp32(rtt > frame.server_ns ? rtt - frame.server_ns : 0);
    }
    Log(p, ok ? Clamp32(now > p.due_ns ? now - p.due_ns : 0) : kFailed,
           queue);
  }

  bool CheckScan(uint64_t start, const Slice& payload, Failures* f) {
    std::vector<std::pair<std::string, std::string>> rows;
    if (!net::ParseScanPayload(payload, &rows).ok()) {
      f->wrong++;
      f->Note("SCAN: unparseable response");
      return false;
    }
    const uint64_t want = std::min<uint64_t>(kScanLen, w_.keys - start);
    if (rows.size() != want) {
      f->wrong++;
      f->Note("SCAN " + KeyOf(start) + ": " + std::to_string(rows.size()) +
              " rows, expected " + std::to_string(want));
      return false;
    }
    for (size_t i = 0; i < rows.size(); i++) {
      uint64_t k = 0;
      if (!ParseKey(rows[i].first, &k) || k != start + i ||
          !CheckValue(w_, *versions_, k, rows[i].second)) {
        f->wrong++;
        f->Note("SCAN " + KeyOf(start) + ": wrong row " + std::to_string(i));
        return false;
      }
    }
    return true;
  }

  const Workload& w_;
  Versions* versions_;
  int index_;
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  net::FrameDecoder decoder_;
  std::deque<Pending> pending_;
  // Requests not yet fully sent: ordinal (pops so far + deque index)
  // and the send-buffer offset just past their last byte.
  std::deque<std::pair<uint64_t, size_t>> unsent_;
  uint64_t popped_ = 0;
  uint64_t next_id_ = 1;
  uint64_t keyed_seq_ = 0;
  uint64_t phase_start_ns_ = 0;
  uint32_t trace_every_ = 0;
  std::vector<Sample>* records_ = nullptr;
};

/// Sends what is buffered and waits for every outstanding response.
bool Drain(Conn* c, Failures* f, uint64_t deadline_ns) {
  if (!c->Send()) return false;
  while (c->pending() > 0) {
    const uint64_t now = NowNs();
    if (now > deadline_ns) {
      f->Note("timed out waiting for responses");
      return false;
    }
    if (!c->Pump(std::min<uint64_t>(deadline_ns - now, 100'000'000), f)) {
      return false;
    }
  }
  return true;
}

constexpr uint64_t kDrainNs = 30'000'000'000ull;

/// Writes every key once (version 1), in pipelined flights of 64.
void Preload(const Workload& w, Conn* c, int index, Failures* f,
             uint64_t* attempted) {
  for (uint64_t k = index; k < w.keys && c->connected();
       k += static_cast<uint64_t>(kConnections)) {
    c->Issue(Op{kPut, k}, NowNs());
    ++*attempted;
    if (c->pending() >= 64 && !Drain(c, f, NowNs() + kDrainNs)) {
      c->FailAll(f);
    }
  }
  if (c->connected() && !Drain(c, f, NowNs() + kDrainNs)) c->FailAll(f);
}

/// Closed loop: flights of `pipeline` requests until `ops` are done or
/// `end_ns` passes (whichever is set).
void ClosedLoop(Conn* c, OpStream* stream, uint64_t ops, uint64_t end_ns,
                Failures* f, uint64_t* attempted) {
  uint64_t done = 0;
  while (c->connected() && (ops == 0 || done < ops) &&
         (end_ns == 0 || NowNs() < end_ns)) {
    const uint64_t now = NowNs();
    for (int i = 0; i < kPipeline; i++) c->Issue(stream->Next(), now);
    done += static_cast<uint64_t>(kPipeline);
    *attempted += static_cast<uint64_t>(kPipeline);
    if (!Drain(c, f, now + kDrainNs)) c->FailAll(f);
  }
}

/// Open loop: request i of this connection is due at
/// start + (i * C + index) / rate; it is sent as soon as it is due, so
/// a stall delays later requests and their latency shows it.
void OpenLoop(const Workload& w, Conn* c, int index, OpStream* stream,
              uint64_t start_ns, double seconds, Failures* f,
              uint64_t* attempted) {
  const double gap_ns = 1e9 / w.open_rate;
  const uint64_t total =
      static_cast<uint64_t>(seconds * w.open_rate / kConnections);
  auto due = [&](uint64_t i) {
    return start_ns + static_cast<uint64_t>(
                          (static_cast<double>(i) * kConnections + index) *
                          gap_ns);
  };
  uint64_t next = 0;
  while (next < total) {
    const uint64_t now = NowNs();
    while (next < total && due(next) <= now) {
      const Op op = stream->Next();
      ++*attempted;
      if (c->connected()) {
        c->Issue(op, due(next));
      } else {
        f->transport++;
      }
      next++;
    }
    if (!c->connected()) {
      const uint64_t wake = next < total ? due(next) : now;
      if (wake > now) {
        struct timespec ts = {static_cast<time_t>((wake - now) / 1'000'000'000),
                              static_cast<long>((wake - now) % 1'000'000'000)};
        nanosleep(&ts, nullptr);
      }
      continue;
    }
    if (!c->Send()) {
      c->FailAll(f);
      continue;
    }
    // Poll, never sleep: on a VM a sleeping thread wakes 10 us or more
    // late, by an amount that follows the host's load, and that delay
    // would enter every latency twice, as send lag and as a late read
    // of the response.
    if (!c->Pump(0, f)) c->FailAll(f);
  }
  if (c->connected() && !Drain(c, f, NowNs() + kDrainNs)) c->FailAll(f);
}

/// The server's peak resident set (VmHWM) in KiB, or 0.
uint64_t PeakRssKb(int pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
  uint64_t hwm_kb = 0;
  if (FILE* fp = std::fopen(path, "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), fp) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) hwm_kb = kb;
    }
    std::fclose(fp);
  }
  return hwm_kb;
}

/// CPU time the server's threads have run, in ns: the sum of the first
/// field of every /proc/PID/task/TID/schedstat.
uint64_t ServerCpuNs(int pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/task", pid);
  DIR* dir = opendir(path);
  if (dir == nullptr) return 0;
  uint64_t total = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    char file[384];
    std::snprintf(file, sizeof(file), "%s/%s/schedstat", path, e->d_name);
    if (FILE* fp = std::fopen(file, "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(fp, "%llu", &ns) == 1) total += ns;
      std::fclose(fp);
    }
  }
  closedir(dir);
  return total;
}

/// The machine's steal and total CPU time in ticks (first line of
/// /proc/stat), or zeros when unreadable.
std::pair<uint64_t, uint64_t> HostCpuTicks() {
  std::pair<uint64_t, uint64_t> out{0, 0};
  if (FILE* fp = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {0};
    if (std::fscanf(fp, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      out.first = v[7];
      for (unsigned long long x : v) out.second += x;
    }
    std::fclose(fp);
  }
  return out;
}

/// Samples the server's CPU time and the host's steal every kWindowNs
/// from `start` until Stop(), so run.py can cut a phase into windows.
/// Each sample is [ns since start, server CPU ns, steal ticks, total
/// ticks].
class WindowSampler {
 public:
  WindowSampler(int pid, uint64_t start) : pid_(pid), start_(start) {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Stops sampling and returns the samples as a JSON array.
  std::string Stop() {
    stop_.store(true);
    thread_.join();
    std::string out = "[";
    for (size_t i = 0; i < samples_.size(); i++) {
      const auto& s = samples_[i];
      out += std::string(i > 0 ? ", " : "") + "[" + std::to_string(s[0]) +
             ", " + std::to_string(s[1]) + ", " + std::to_string(s[2]) +
             ", " + std::to_string(s[3]) + "]";
    }
    return out + "]";
  }

 private:
  void Loop() {
    for (uint64_t due = start_; !stop_.load(); due += kWindowNs) {
      struct timespec ts = {static_cast<time_t>(due / 1'000'000'000),
                            static_cast<long>(due % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      if (stop_.load()) break;
      const uint64_t cpu = ServerCpuNs(pid_);
      const auto host = HostCpuTicks();
      samples_.push_back({NowNs() - start_, cpu, host.first, host.second});
    }
  }

  const int pid_;
  const uint64_t start_;
  std::atomic<bool> stop_{false};
  std::vector<std::array<uint64_t, 4>> samples_;
  std::thread thread_;
};

bool WriteRecords(const std::string& path, const std::vector<Sample>& recs) {
  FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) return false;
  const size_t n = recs.empty()
                       ? 0
                       : std::fwrite(recs.data(), sizeof(Sample),
                                     recs.size(), fp);
  return std::fclose(fp) == 0 && n == recs.size();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string FailuresJson(const Failures& f) {
  return "{\"refused\": " + std::to_string(f.refused) +
         ", \"error\": " + std::to_string(f.error) +
         ", \"transport\": " + std::to_string(f.transport) +
         ", \"wrong\": " + std::to_string(f.wrong) +
         ", \"first\": " + JsonString(f.first) + "}";
}

struct PhaseSpec {
  std::string kind;
  double seconds = 0;
  uint32_t trace_every = 0;
};

struct Args {
  std::string mode;
  Workload w;
  uint16_t port = 0;
  int server_pid = 0;
  std::string out = ".";
  double seconds = 0;
  std::vector<PhaseSpec> phases;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    Workload& w = a->w;
    if (flag == "--port") {
      a->port = static_cast<uint16_t>(std::atoi(v));
    } else if (flag == "--server-pid") {
      a->server_pid = std::atoi(v);
    } else if (flag == "--out") {
      a->out = v;
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--keys") {
      w.keys = std::strtoull(v, nullptr, 10);
    } else if (flag == "--value-size") {
      w.value_size = std::strtoull(v, nullptr, 10);
    } else if (flag == "--get") {
      w.get_frac = std::atof(v);
    } else if (flag == "--scan") {
      w.scan_frac = std::atof(v);
    } else if (flag == "--dist") {
      w.zipf = std::strcmp(v, "zipf") == 0;
    } else if (flag == "--seed") {
      w.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--warmup-ops") {
      w.warmup_ops = std::strtoull(v, nullptr, 10);
    } else if (flag == "--open-rate") {
      w.open_rate = std::atof(v);
    } else if (flag == "--phase") {
      PhaseSpec p;
      char kind[16] = {0};
      unsigned trace = 0;
      if (std::sscanf(v, "%15[a-z]:%lf:%u", kind, &p.seconds, &trace) != 3) {
        return false;
      }
      p.kind = kind;
      p.trace_every = trace;
      if (p.kind != "open" && p.kind != "closed") return false;
      a->phases.push_back(p);
    } else {
      return false;
    }
  }
  const Workload& w = a->w;
  return w.keys > 0 && w.open_rate > 0 && w.keys < (1ull << 40);
}

/// The fixed run shape of config.h, for the run artifact.
std::string ConfigJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"shards\": %d, \"workers\": %d, \"pool_mb\": %llu, "
                "\"pmem_mb\": %llu, \"cache_mb\": %llu, "
                "\"cache_admit\": %u, \"writer_slots\": %d, "
                "\"connections\": %d, \"pipeline\": %d, "
                "\"zipf_theta\": %g, \"scan_len\": %u, "
                "\"window_s\": %g}",
                kShards, kWorkers, static_cast<unsigned long long>(kPoolMb),
                static_cast<unsigned long long>(kPmemMb),
                static_cast<unsigned long long>(kCacheMb), kCacheAdmit,
                kWriterSlots, kConnections, kPipeline, kZipfTheta, kScanLen,
                static_cast<double>(kWindowNs) * 1e-9);
  return buf;
}

/// The smallest "bench.pmem_refreshes" gauge over the shards of a STATS
/// document, or 0 when it is missing.
uint64_t MinRefreshes(const std::string& json) {
  static const std::string kName = "\"bench.pmem_refreshes\":";
  uint64_t least = 0;
  bool seen = false;
  for (size_t at = json.find(kName); at != std::string::npos;
       at = json.find(kName, at + 1)) {
    const uint64_t v = std::strtoull(json.c_str() + at + kName.size(),
                                     nullptr, 10);
    least = seen ? std::min(least, v) : v;
    seen = true;
  }
  return least;
}

int RunNet(const Args& a) {
  const Workload& w = a.w;
  std::unique_ptr<Zipf> zipf;
  if (w.zipf) zipf = std::make_unique<Zipf>(w.keys, kZipfTheta);
  Versions versions(w.keys);
  const int n = kConnections;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<Failures> fails(n);
  std::vector<uint64_t> attempted(n, 0);
  for (int i = 0; i < n; i++) {
    conns.push_back(std::make_unique<Conn>(w, &versions, i));
    streams.push_back(std::make_unique<OpStream>(w, zipf.get(), i));
    if (!conns[i]->Connect(a.port)) {
      std::fprintf(stderr, "cannot connect to port %u\n", a.port);
      return 1;
    }
  }
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> threads;
    for (int i = 0; i < n; i++) threads.emplace_back(body, i);
    for (auto& t : threads) t.join();
  };
  auto tally = [&]() {
    Failures f;
    for (const Failures& x : fails) f.Add(x);
    uint64_t total = 0;
    for (uint64_t x : attempted) total += x;
    return std::make_pair(f, total);
  };

  parallel([&](int i) {
    Preload(w, conns[i].get(), i, &fails[i], &attempted[i]);
  });
  parallel([&](int i) {
    const uint64_t share = (w.warmup_ops + n - 1) / n;
    ClosedLoop(conns[i].get(), streams[i].get(), share, 0, &fails[i],
               &attempted[i]);
  });
  const uint64_t t_setup_done = NowNs();

  std::string doc = "{\"config\": " + ConfigJson() +
                    ", \"t_setup_done\": " +
                    std::to_string(t_setup_done * 1e-9) + ", \"phases\": [";
  bool stats_ok = true;
  uint64_t refreshes = 0;
  auto scrape = [&](std::string* out) {
    // The server refreshes its PMem gauge on SIGUSR1; STATS is read
    // again until it shows this refresh.
    std::string json = "null";
    Conn* c = conns[0].get();
    refreshes++;
    bool fresh = kill(a.server_pid, SIGUSR1) == 0;
    const uint64_t deadline = NowNs() + 10'000'000'000ull;
    while (fresh) {
      if (!c->connected() || !c->Stats(&json)) {
        fresh = false;
      } else if (MinRefreshes(json) >= refreshes) {
        break;
      } else if (NowNs() > deadline) {
        fresh = false;
      } else {
        struct timespec ts = {0, 1'000'000};
        nanosleep(&ts, nullptr);
      }
    }
    if (!fresh) {
      stats_ok = false;
      json = "null";
    }
    *out += "\"stats\": " + json + ", \"hwm_kb\": " +
            std::to_string(PeakRssKb(a.server_pid));
  };

  std::string before;
  scrape(&before);
  for (size_t pi = 0; pi < a.phases.size(); pi++) {
    const PhaseSpec& ps = a.phases[pi];
    std::vector<std::vector<Sample>> records(n);
    // Starts 1 ms ahead so every connection's first request is due
    // after its thread is running.
    const uint64_t start = NowNs() + 1'000'000;
    WindowSampler sampler(a.server_pid, start);
    parallel([&](int i) {
      conns[i]->BeginPhase(start, ps.trace_every, &records[i]);
      if (ps.kind == "open") {
        OpenLoop(w, conns[i].get(), i, streams[i].get(), start, ps.seconds,
                 &fails[i], &attempted[i]);
      } else {
        while (NowNs() < start) {
        }
        ClosedLoop(conns[i].get(), streams[i].get(), 0,
                   start + static_cast<uint64_t>(ps.seconds * 1e9), &fails[i],
                   &attempted[i]);
      }
      conns[i]->BeginPhase(0, 0, nullptr);
    });
    const uint64_t end = NowNs();
    const std::string windows = sampler.Stop();
    std::vector<Sample> all;
    for (auto& r : records) all.insert(all.end(), r.begin(), r.end());
    const std::string file = a.out + "/phase" + std::to_string(pi) + ".bin";
    if (!WriteRecords(file, all)) {
      std::fprintf(stderr, "cannot write %s\n", file.c_str());
      return 1;
    }
    std::string after;
    scrape(&after);
    doc += std::string(pi > 0 ? ", " : "") +
           "{\"trace_every\": " + std::to_string(ps.trace_every) +
           ", \"elapsed_s\": " + std::to_string((end - start) * 1e-9) +
           ", \"records\": " + JsonString(file) +
           ", \"windows\": " + windows + ", \"before\": {" +
           before + "}, \"after\": {" + after + "}}";
    before = after;
  }
  const auto total = tally();
  doc += "], \"attempted\": " + std::to_string(total.second) +
         ", \"failures\": " + FailuresJson(total.first) +
         ", \"stats_ok\": " + (stats_ok ? "true" : "false") + "}";
  std::printf("%s\n", doc.c_str());
  return 0;
}

/// The DB rung: one in-process DB configured like one server shard,
/// fed the shard-0 part of the same streams, every call timed.
int RunDb(const Args& a) {
  const Workload& w = a.w;
  net::ShardMap map;
  map.num_shards = static_cast<uint32_t>(kShards);
  net::ShardRouter router;
  if (!net::ShardRouter::Build(map, &router).ok()) return 1;
  auto mine = [&](uint64_t k) { return router.ShardOf(KeyOf(k)) == 0; };

  EnvOptions env_opts;
  env_opts.pmem_capacity = kPmemMb << 20;
  env_opts.cat_locked_bytes = kPoolMb << 20;
  PmemEnv env(env_opts);
  CacheKVOptions db_opts;
  db_opts.pool_bytes = kPoolMb << 20;
  db_opts.num_cores = kWriterSlots;
  std::unique_ptr<DB> db;
  Status s = DB::Open(&env, db_opts, /*recover=*/false, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<Zipf> zipf;
  if (w.zipf) zipf = std::make_unique<Zipf>(w.keys, kZipfTheta);
  Versions versions(w.keys);
  Failures f;
  uint64_t attempted = 0;
  std::vector<Sample> records;
  uint64_t phase_start = NowNs();
  bool timing = false;

  auto note = [&](OpType type, uint64_t t0, const Status& st) {
    const uint64_t t1 = NowNs();
    if (!st.ok()) {
      f.error++;
      f.Note(st.ToString());
    }
    if (timing) {
      records.push_back(Sample{type,
                               static_cast<uint32_t>((t0 - phase_start) / 1000),
                               st.ok() ? Clamp32(t1 - t0) : kFailed, 0,
                               kUntraced});
    }
  };
  auto multiput = [&](const std::vector<uint64_t>& keys) {
    std::vector<DB::BatchOp> batch(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      batch[i].key = KeyOf(keys[i]);
      batch[i].value =
          Payload(keys[i], versions.Issue(keys[i]), w.value_size);
    }
    attempted += keys.size();
    const uint64_t t0 = NowNs();
    note(keys.size() == 1 ? kPut : kMultiPut, t0,
         keys.size() == 1 ? db->Put(batch[0].key, batch[0].value)
                          : db->MultiPut(batch));
  };
  auto read = [&](const Op& op) {
    attempted++;
    const std::string key = KeyOf(op.key);
    if (op.type == kGet) {
      std::string value;
      const uint64_t t0 = NowNs();
      const Status st = db->Get(key, &value);
      note(kGet, t0, st);
      if (st.ok() && !CheckValue(w, versions, op.key, value)) {
        f.wrong++;
        f.Note("DB Get " + key + ": wrong value");
      }
    } else {
      std::vector<std::pair<std::string, std::string>> rows;
      const uint64_t t0 = NowNs();
      const Status st = db->Scan(key, kScanLen, &rows);
      note(kScan, t0, st);
      // The DB holds only shard 0's keys, so rows are checked for
      // order and payload rather than density.
      uint64_t prev = 0;
      for (size_t i = 0; st.ok() && i < rows.size(); i++) {
        uint64_t k = 0;
        if (!ParseKey(rows[i].first, &k) || k < op.key ||
            (i > 0 && k <= prev) || !mine(k) ||
            !CheckValue(w, versions, k, rows[i].second)) {
          f.wrong++;
          f.Note("DB Scan " + key + ": wrong row");
          break;
        }
        prev = k;
      }
    }
  };

  // Preload: shard 0's keys in batches of 8, as the server batches the
  // pipelined preload.
  std::vector<uint64_t> batch;
  for (uint64_t k = 0; k < w.keys; k++) {
    if (!mine(k)) continue;
    batch.push_back(k);
    if (batch.size() == 8) {
      multiput(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) multiput(batch);
  batch.clear();

  // Replay flights of the connection streams in turn; within a flight,
  // a run of consecutive PUTs commits as one MultiPut, as the server
  // commits a run of pipelined writes.
  std::vector<std::unique_ptr<OpStream>> streams;
  for (int i = 0; i < kConnections; i++) {
    streams.push_back(std::make_unique<OpStream>(w, zipf.get(), i));
  }
  uint64_t replayed = 0;
  const uint64_t warmup = w.warmup_ops / static_cast<uint64_t>(kShards);
  uint64_t end_ns = 0;
  // The replay also stops after writing 256 MB of values, so a faster
  // DB cannot fill its 1 GB of PMem within the rung.
  const uint64_t max_puts = (256ull << 20) / std::max<size_t>(w.value_size, 1);
  uint64_t puts = 0;
  for (int c = 0; puts < max_puts; c = (c + 1) % kConnections) {
    if (replayed >= warmup && end_ns == 0) {
      timing = true;
      phase_start = NowNs();
      end_ns = phase_start + static_cast<uint64_t>(a.seconds * 1e9);
    }
    if (end_ns != 0 && NowNs() >= end_ns) break;
    for (int i = 0; i < kPipeline; i++) {
      const Op op = streams[c]->Next();
      if (!mine(op.key)) continue;
      replayed++;
      if (op.type == kPut) {
        batch.push_back(op.key);
        puts++;
        continue;
      }
      if (!batch.empty()) multiput(batch);
      batch.clear();
      read(op);
    }
    if (!batch.empty()) multiput(batch);
    batch.clear();
  }
  const Status idle = db->WaitIdle();
  if (!idle.ok()) {
    f.error++;
    f.Note("WaitIdle: " + idle.ToString());
  }
  const std::string file = a.out + "/dbrung.bin";
  if (!WriteRecords(file, records)) {
    std::fprintf(stderr, "cannot write %s\n", file.c_str());
    return 1;
  }
  std::printf("{\"attempted\": %llu, \"failures\": %s, \"records\": %s}\n",
              static_cast<unsigned long long>(attempted),
              FailuresJson(f).c_str(), JsonString(file).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a) || (a.mode != "net" && a.mode != "db") ||
      (a.mode == "net" && (a.port == 0 || a.server_pid <= 0))) {
    std::fprintf(stderr,
                 "usage: %s net --port P --server-pid PID --out DIR "
                 "[workload] [--phase KIND:S:TRACE]...\n"
                 "       %s db --out DIR --seconds S [workload]\n",
                 argv[0], argv[0]);
    return 2;
  }
  return a.mode == "net" ? RunNet(a) : RunDb(a);
}
