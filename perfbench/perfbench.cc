// perfbench: one run of the repository benchmark (see perfbench/README.md).
//
// A run repeats one workload in reps until --seconds have passed (at least
// --min-reps). Every rep builds its own tree, request stream and serving
// system, warms it up untimed, times the request stream as a closed loop,
// and then computes a correctness verdict. Each rep is printed as one JSON
// line on stdout; the last line carries process-wide numbers (peak RSS).
// run.py turns those lines into the result (the best rep for the timings
// it names, the median over the reps for the rest) and the work guard.
//
// Load comes from this one thread. The net workloads keep at most W
// mechanism requests outstanding: a new one is injected only after the
// oldest outstanding one completed (NetDriver::WaitCompleted blocks on a
// given id, so the loop waits in FIFO order and retires every request that
// completed meanwhile). A request's latency runs from its inject to the
// moment this thread observed its completion. Snapshot reads (net-mixed
// only) are synchronous QueryNode calls.
//
// The whole process, driver and daemon threads alike, runs on one CPU. On
// a virtual machine whose vCPUs the hypervisor shares with other guests, a
// hop between threads on different vCPUs waits until the target vCPU is
// scheduled again, and such waits swing the net workloads' throughput by
// a factor of several; on one CPU a hop is a context switch, and contention
// costs only the CPU share it takes.
//
// --trace 1 alternates untraced and traced reps. Traced reps turn on the
// daemons' obs metrics, scrape each daemon's /metrics before and after the
// timed phase, and time every call into the driver (or the sequential
// system); the spans of the last traced rep go to --trace-out through
// obs::TraceEventSink.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "consistency/causal_checker.h"
#include "core/aggregate_op.h"
#include "core/extra_policies.h"
#include "net/local_cluster.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "sim/system.h"
#include "tree/generators.h"
#include "workload/generators.h"

namespace treeagg {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Since(Clock::time_point t) { return Seconds(Clock::now() - t); }

// Workload sizes. Request counts are per rep; a rep's timed phase is a
// fixed amount of work, so reps and runs are comparable.
struct Workload {
  std::string name;
  bool net = true;
  NodeId nodes = 0;
  NodeId arity = 2;
  bool ghosts = false;
  bool reads = false;      // every second combine becomes a snapshot read
  std::size_t window = 1;  // outstanding mechanism requests (net only)
  std::size_t warm_len = 0;
  std::size_t len = 0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Every tree edge crosses a daemon boundary (rr placement).
      {"net-mixed", true, 1023, 4, false, true, 8, 10000, 20000},
      // Ghost logs grow with the history, and one daemon's kHarvestResp
      // must stay below kMaxFrameLen (4 MiB): keep the history short.
      {"net-verified", true, 127, 2, true, false, 4, 500, 2000},
      // A working set far larger than the caches.
      {"sim-seq", false, 100000, 8, false, false, 1, 100000, 200000},
  };
  return kWorkloads;
}

// The request stream: mixed50; with `reads`, every second combine is
// served as a snapshot read instead of a mechanism combine.
enum class Op : char { kWrite, kCombine, kRead };
struct Step {
  Op op;
  NodeId node;
  Real arg;
};

std::vector<Step> MakeSteps(const Tree& tree, std::size_t len,
                            std::uint64_t seed, bool reads) {
  std::vector<Step> steps;
  steps.reserve(len);
  bool read_next = false;
  for (const Request& r : MakeWorkload("mixed50", tree, len, seed)) {
    if (r.op == ReqType::kWrite) {
      steps.push_back({Op::kWrite, r.node, r.arg});
    } else {
      steps.push_back({read_next ? Op::kRead : Op::kCombine, r.node, 0});
      read_next = reads && !read_next;
    }
  }
  return steps;
}

// The warm-up stream is a different draw of the same distribution.
std::uint64_t WarmSeed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 1;
}

std::vector<NodeId> ParentVector(const Tree& tree) {
  std::vector<NodeId> parent(static_cast<std::size_t>(tree.size()));
  for (NodeId u = 1; u < tree.size(); ++u) {
    parent[static_cast<std::size_t>(u)] = tree.RootedParent(u);
  }
  return parent;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// User plus system CPU time of the whole process, every thread included.
double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

// --- spans around calls into the measured layer ---------------------------

enum SpanKind { kInject, kWait, kQuery, kQuiesce, kHarvest, kWrite, kCombine,
                kNumSpanKinds };
constexpr const char* kSpanNames[kNumSpanKinds] = {
    "inject", "wait", "query", "quiesce", "harvest", "write", "combine"};

class SpanLog {
 public:
  explicit SpanLog(obs::TraceEventSink* sink) : sink_(sink) {}

  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }

  void Record(SpanKind kind, Clock::time_point start, Clock::time_point end) {
    const double dur_us = Seconds(end - start) * 1e6;
    total_s_[kind] += dur_us * 1e-6;
    ++count_[kind];
    if (sink_ != nullptr && emitted_ < kMaxEvents) {
      ++emitted_;
      sink_->CompleteEvent(kSpanNames[kind], "perfbench", 1, 1,
                           Seconds(start - origin_) * 1e6, dur_us);
    }
  }

  double total_s(SpanKind k) const { return total_s_[k]; }
  double mean_us(SpanKind k) const { return Ratio(total_s_[k] * 1e6, count_[k]); }
  double covered_s() const {
    double s = 0;
    for (int k = 0; k < kNumSpanKinds; ++k) {
      if (k != kHarvest) s += total_s_[k];
    }
    return s;
  }

 private:
  // Caps the trace file; the summary numbers cover every span.
  static constexpr std::size_t kMaxEvents = 20000;
  obs::TraceEventSink* sink_;
  Clock::time_point origin_ = Clock::now();
  bool active_ = false;
  double total_s_[kNumSpanKinds] = {};
  std::uint64_t count_[kNumSpanKinds] = {};
  std::size_t emitted_ = 0;
};

// Times one call when the log is active.
class Span {
 public:
  Span(SpanLog& log, SpanKind kind)
      : log_(log.active() ? &log : nullptr), kind_(kind) {
    if (log_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (log_ != nullptr) log_->Record(kind_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  Clock::time_point start_;
};

// --- Prometheus text scraped from the daemons ------------------------------

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

void ParsePrometheus(const std::string& text, std::vector<Sample>* out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) continue;
    s.name = line.substr(0, pos);
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      if (close == std::string::npos) continue;
      std::string body = line.substr(pos + 1, close - pos - 1);
      std::size_t i = 0;
      while (i < body.size()) {
        const std::size_t eq = body.find('=', i);
        const std::size_t q1 = body.find('"', eq);
        const std::size_t q2 = body.find('"', q1 + 1);
        if (eq == std::string::npos || q2 == std::string::npos) break;
        s.labels[body.substr(i, eq - i)] = body.substr(q1 + 1, q2 - q1 - 1);
        i = q2 + 1;
        if (i < body.size() && body[i] == ',') ++i;
      }
      pos = close + 1;
    }
    s.value = std::strtod(line.c_str() + pos, nullptr);
    out->push_back(std::move(s));
  }
}

struct Scrape {
  std::vector<Sample> samples;

  double Sum(const std::string& name, const std::string& key = "",
             const std::string& value = "") const {
    double sum = 0;
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      if (!key.empty()) {
        auto it = s.labels.find(key);
        if (it == s.labels.end() || it->second != value) continue;
      }
      sum += s.value;
    }
    return sum;
  }

  // Buckets summed over every daemon, as a non-cumulative snapshot.
  obs::HistogramSnapshot Hist(const std::string& name) const {
    std::map<double, double> cumulative;  // le -> count, +Inf as infinity
    for (const Sample& s : samples) {
      if (s.name != name + "_bucket") continue;
      auto it = s.labels.find("le");
      if (it == s.labels.end()) continue;
      const double le = it->second == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(it->second.c_str(), nullptr);
      cumulative[le] += s.value;
    }
    obs::HistogramSnapshot h;
    double prev = 0;
    for (const auto& [le, c] : cumulative) {
      if (!std::isinf(le)) h.bounds.push_back(le);
      h.counts.push_back(static_cast<std::uint64_t>(c - prev));
      prev = c;
    }
    h.count = static_cast<std::uint64_t>(Sum(name + "_count"));
    h.sum = Sum(name + "_sum");
    return h;
  }
};

obs::HistogramSnapshot Minus(obs::HistogramSnapshot after,
                             const obs::HistogramSnapshot& before) {
  for (std::size_t i = 0; i < after.counts.size() && i < before.counts.size();
       ++i) {
    after.counts[i] -= before.counts[i];
  }
  after.count -= before.count;
  after.sum -= before.sum;
  return after;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("scrape: socket failed");
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ok = ok && ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(request.size());
  char buf[65536];
  ssize_t n = 0;
  while (ok && (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (!ok || n < 0 || body == std::string::npos ||
      response.compare(0, 12, "HTTP/1.1 200") != 0) {
    throw std::runtime_error("scrape of port " + std::to_string(port) +
                             " failed");
  }
  return response.substr(body + 4);
}

Scrape ScrapeCluster(const LocalCluster& cluster, int daemons) {
  Scrape scrape;
  for (int d = 0; d < daemons; ++d) {
    ParsePrometheus(HttpGet(cluster.DaemonMetricsPort(d), "/metrics"),
                    &scrape.samples);
  }
  return scrape;
}

Scrape ScrapeRegistry(const obs::MetricsRegistry& registry) {
  Scrape scrape;
  ParsePrometheus(registry.RenderPrometheus(), &scrape.samples);
  return scrape;
}

// Restricts the process to the last CPU it may run on; threads started
// later inherit the restriction.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

// --- one rep ---------------------------------------------------------------

struct Rep {
  bool traced = false;
  bool ok = true;
  bool aborted = false;  // an exception ended the rep, and with it the run
  std::string error;  // why the verdict failed, or the exception text
  std::vector<std::pair<std::string, double>> values;

  void Set(const std::string& key, double v) { values.emplace_back(key, v); }
  void Fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

// Timed-phase latency samples (microseconds), one per request.
struct Timed {
  std::vector<double> write_us, combine_us, read_us;

  double mechanism() const {
    return static_cast<double>(write_us.size() + combine_us.size());
  }
  double requests() const {
    return mechanism() + static_cast<double>(read_us.size());
  }
  void Report(Rep& rep, double elapsed_s, double cpu_s) const {
    rep.Set("requests", requests());
    rep.Set("timed_s", elapsed_s);
    rep.Set("cpu_share", Ratio(cpu_s, elapsed_s));
    rep.Set("req_per_s", Ratio(requests(), elapsed_s));
    rep.Set("write_p50_us", Percentile(write_us, 0.50));
    rep.Set("write_p99_us", Percentile(write_us, 0.99));
    rep.Set("combine_p50_us", Percentile(combine_us, 0.50));
    rep.Set("combine_p99_us", Percentile(combine_us, 0.99));
    rep.Set("read_p50_us", Percentile(read_us, 0.50));
    rep.Set("read_p99_us", Percentile(read_us, 0.99));
    rep.Set("write_samples", static_cast<double>(write_us.size()));
    rep.Set("combine_samples", static_cast<double>(combine_us.size()));
    rep.Set("read_samples", static_cast<double>(read_us.size()));
  }
};

struct Setup {
  double tree_s = 0, workload_s = 0, cluster_s = 0, warmup_s = 0;
  void Report(Rep& rep) const {
    rep.Set("setup_s", tree_s + workload_s + cluster_s + warmup_s);
    rep.Set("setup.tree_s", tree_s);
    rep.Set("setup.workload_s", workload_s);
    rep.Set("setup.cluster_s", cluster_s);
    rep.Set("setup.warmup_s", warmup_s);
  }
};

// Closed-loop drive of `steps`. `timed` null = warm-up (no samples).
void DriveNet(NetDriver& driver, const std::vector<Step>& steps,
              std::size_t window, SpanLog& spans, Timed* timed) {
  struct Pending {
    ReqId id;
    Op op;
    Clock::time_point injected;
  };
  std::vector<Pending> pending;
  pending.reserve(window);
  const auto retire = [&] {
    const Clock::time_point now = Clock::now();
    std::erase_if(pending, [&](const Pending& p) {
      if (!driver.history().record(p.id).completed()) return false;
      if (timed != nullptr) {
        (p.op == Op::kWrite ? timed->write_us : timed->combine_us)
            .push_back(Seconds(now - p.injected) * 1e6);
      }
      return true;
    });
  };
  const auto wait_oldest = [&] {
    {
      Span span(spans, kWait);
      driver.WaitCompleted(pending.front().id);
    }
    retire();
  };
  for (const Step& s : steps) {
    while (pending.size() >= window) wait_oldest();
    const Clock::time_point start = Clock::now();
    if (s.op == Op::kRead) {
      {
        Span span(spans, kQuery);
        driver.QueryNode(s.node);
      }
      if (timed != nullptr) timed->read_us.push_back(Since(start) * 1e6);
      retire();  // completions that arrived while the read was pumped
      continue;
    }
    ReqId id;
    {
      Span span(spans, kInject);
      id = s.op == Op::kWrite ? driver.InjectWrite(s.node, s.arg)
                              : driver.InjectCombine(s.node);
    }
    pending.push_back({id, s.op, start});
  }
  while (!pending.empty()) wait_oldest();
  Span span(spans, kQuiesce);
  driver.WaitQuiescent();
}

// Sum of the last write at every node, folded without the tree.
Real FoldLastWrites(NodeId nodes, const std::vector<const std::vector<Step>*>&
                                      streams) {
  std::vector<Real> last(static_cast<std::size_t>(nodes), 0);
  for (const auto* steps : streams) {
    for (const Step& s : *steps) {
      if (s.op == Op::kWrite) last[static_cast<std::size_t>(s.node)] = s.arg;
    }
  }
  Real sum = 0;
  for (Real v : last) sum += v;
  return sum;
}

bool Close(Real a, Real b) {
  return std::fabs(a - b) <= 1e-9 * std::max<Real>(1, std::fabs(b));
}

// The mechanism's treeagg_node_* counters per write or combine.
void ReportCore(Rep& rep, const Scrape& before, const Scrape& after,
                double mechanism, double timed_s, double messages) {
  const auto per_req = [&](const std::string& name, const std::string& kind) {
    const std::string key = kind.empty() ? "" : "kind";
    return Ratio(after.Sum(name, key, kind) - before.Sum(name, key, kind),
                 mechanism);
  };
  for (const char* kind : obs::kMsgKindNames) {
    rep.Set(std::string("core.") + kind + "_per_req",
            per_req("treeagg_node_messages_sent_total", kind));
  }
  rep.Set("core.lease_grants_per_req",
          per_req("treeagg_node_lease_grants_total", ""));
  rep.Set("core.lease_revokes_per_req",
          per_req("treeagg_node_lease_revokes_total", ""));
  rep.Set("core.ns_per_msg", Ratio(timed_s * 1e9, messages));
}

void RunNetRep(const Workload& w, std::uint64_t seed, bool traced,
               obs::TraceEventSink* sink, Rep& rep) {
  constexpr int kDaemons = 3;
  Setup setup;
  Clock::time_point t = Clock::now();
  const Tree tree = MakeKary(w.nodes, w.arity);
  const std::vector<NodeId> parent = ParentVector(tree);
  setup.tree_s = Since(t);

  t = Clock::now();
  const std::vector<Step> warm =
      MakeSteps(tree, w.warm_len, WarmSeed(seed), w.reads);
  const std::vector<Step> steps = MakeSteps(tree, w.len, seed, w.reads);
  setup.workload_s = Since(t);

  LocalCluster::Options options;
  options.daemons = kDaemons;
  options.placement = "rr";
  options.policy = "RWW";
  options.ghost_logging = w.ghosts;
  options.metrics = traced;
  options.metrics_port = traced ? 0 : -1;
  t = Clock::now();
  LocalCluster cluster(parent, options);
  NetDriver& driver = cluster.driver();
  setup.cluster_s = Since(t);

  SpanLog spans(sink);
  t = Clock::now();
  DriveNet(driver, warm, w.window, spans, nullptr);
  setup.warmup_s = Since(t);
  setup.Report(rep);

  Scrape before;
  if (traced) before = ScrapeCluster(cluster, kDaemons);
  const std::uint64_t messages_before = driver.TotalMessages();
  Timed timed;
  spans.set_active(traced);
  const double cpu_before = ProcessCpuSeconds();
  t = Clock::now();
  DriveNet(driver, steps, w.window, spans, &timed);
  const double timed_s = Since(t);
  const double messages =
      static_cast<double>(driver.TotalMessages() - messages_before);
  timed.Report(rep, timed_s, ProcessCpuSeconds() - cpu_before);
  rep.Set("messages", messages);
  rep.Set("msgs_per_req", Ratio(messages, timed.mechanism()));
  Scrape after;
  if (traced) after = ScrapeCluster(cluster, kDaemons);

  // Verdict.
  t = Clock::now();
  if (!driver.history().AllCompleted()) rep.Fail("incomplete requests");
  double check_s = 0, ghost_entries = 0;
  if (w.ghosts) {
    NetDriver::HarvestResult harvest;
    {
      Span span(spans, kHarvest);
      harvest = driver.Harvest();
    }
    for (const NodeGhostState& g : harvest.ghosts) {
      ghost_entries += static_cast<double>(g.write_log.size());
    }
    const Clock::time_point c = Clock::now();
    const CheckResult causal = CheckCausalConsistency(
        driver.history(), harvest.ghosts, OpByName("sum"), tree.size());
    check_s = Since(c);
    if (!causal.ok) rep.Fail("causal checker: " + causal.message);
  } else {
    // A root combine in the settled network against the sequential
    // simulator on the same writes.
    const ReqId root = driver.InjectCombine(0);
    driver.WaitCompleted(root);
    const Real got = driver.history().record(root).retval;
    AggregationSystem::Options sim_options;
    sim_options.edge_accounting = false;
    AggregationSystem sim(tree, PolicyBySpec("RWW"), sim_options);
    for (const auto* stream : {&warm, &steps}) {
      for (const Step& s : *stream) {
        if (s.op == Op::kWrite) sim.Write(s.node, s.arg);
      }
    }
    const Real want = sim.Combine(0);
    if (!Close(got, want)) {
      std::ostringstream why;
      why << std::setprecision(17) << "root combine " << got
          << " != sequential simulator " << want;
      rep.Fail(why.str());
    }
  }
  rep.Set("verify_s", Since(t));
  const std::uint64_t replay_hwm = cluster.ReplayLogHighWater();
  cluster.Stop();
  if (!cluster.DaemonError().empty()) {
    rep.Fail("daemon: " + cluster.DaemonError());
  }
  if (!traced) return;

  const double reqs = timed.requests();
  const auto delta = [&](const std::string& name) {
    return after.Sum(name) - before.Sum(name);
  };
  rep.Set("net.driver.inject_us", spans.mean_us(kInject));
  rep.Set("net.driver.wait_s", spans.total_s(kWait));
  rep.Set("net.driver.quiesce_s", spans.total_s(kQuiesce));
  rep.Set("net.driver.query_us", spans.mean_us(kQuery));
  rep.Set("net.driver.harvest_s", spans.total_s(kHarvest));
  rep.Set("net.driver.span_coverage", Ratio(spans.covered_s(), timed_s));

  const obs::HistogramSnapshot frame_ms =
      Minus(after.Hist("treeagg_daemon_frame_handle_ms"),
            before.Hist("treeagg_daemon_frame_handle_ms"));
  rep.Set("net.daemon.frames_handled", static_cast<double>(frame_ms.count));
  rep.Set("net.daemon.busy_s", frame_ms.sum / 1e3);
  rep.Set("net.daemon.busy_us_per_frame",
          Ratio(frame_ms.sum * 1e3, static_cast<double>(frame_ms.count)));
  rep.Set("net.daemon.replay_log_hwm", static_cast<double>(replay_hwm));

  rep.Set("net.transport.bytes_per_msg",
          Ratio(delta("treeagg_peer_bytes_sent_total"),
                delta("treeagg_peer_messages_sent_total")));
  rep.Set("net.transport.msgs_per_frame",
          Ratio(delta("treeagg_transport_messages_sent_total"),
                delta("treeagg_transport_protocol_frames_sent_total")));
  rep.Set("net.transport.frames_per_syscall",
          Ratio(delta("treeagg_transport_frames_sent_total"),
                delta("treeagg_transport_send_syscalls_total")));
  rep.Set("net.transport.send_syscalls_per_req",
          Ratio(delta("treeagg_transport_send_syscalls_total"), reqs));
  rep.Set("net.transport.recv_syscalls_per_req",
          Ratio(delta("treeagg_transport_recv_syscalls_total"), reqs));
  // Every link's first establishment also counts as a reconnect, so these
  // two count the timed phase only.
  rep.Set("net.transport.reconnects",
          delta("treeagg_transport_reconnects_total"));
  rep.Set("net.transport.backpressure_stalls",
          delta("treeagg_transport_backpressure_stalls_total"));

  ReportCore(rep, before, after, timed.mechanism(), timed_s, messages);

  const double served = delta("treeagg_query_served_total");
  rep.Set("query.served", served);
  rep.Set("query.retry_ratio",
          Ratio(delta("treeagg_query_read_retries_total"), served));
  rep.Set("query.serve_us_p50",
          Minus(after.Hist("treeagg_query_serve_latency_ms"),
                before.Hist("treeagg_query_serve_latency_ms"))
                  .Quantile(0.5) *
              1e3);
  rep.Set("consistency.causal_check_s", check_s);
  rep.Set("consistency.ghost_entries", ghost_entries);
}

// Sequential driver: one request at a time, each run to quiescence. The
// sim workload has no snapshot reads.
void DriveSim(AggregationSystem& sys, const std::vector<Step>& steps,
              SpanLog& spans, Timed* timed) {
  for (const Step& s : steps) {
    const Clock::time_point start = Clock::now();
    const bool write = s.op == Op::kWrite;
    if (write) {
      sys.Write(s.node, s.arg);
    } else {
      sys.Combine(s.node);
    }
    if (timed == nullptr) continue;
    const Clock::time_point end = Clock::now();
    (write ? timed->write_us : timed->combine_us)
        .push_back(Seconds(end - start) * 1e6);
    if (spans.active()) spans.Record(write ? kWrite : kCombine, start, end);
  }
}

void RunSimRep(const Workload& w, std::uint64_t seed, bool traced,
               obs::TraceEventSink* sink, Rep& rep) {
  Setup setup;
  Clock::time_point t = Clock::now();
  const Tree tree = MakeKary(w.nodes, w.arity);
  setup.tree_s = Since(t);

  t = Clock::now();
  const std::vector<Step> warm =
      MakeSteps(tree, w.warm_len, WarmSeed(seed), w.reads);
  const std::vector<Step> steps = MakeSteps(tree, w.len, seed, w.reads);
  setup.workload_s = Since(t);

  obs::MetricsRegistry registry;
  AggregationSystem::Options options;
  options.op = &OpByName("sum");
  options.edge_accounting = false;
  options.metrics = traced ? &registry : nullptr;
  t = Clock::now();
  AggregationSystem sys(tree, PolicyBySpec("RWW"), options);
  setup.cluster_s = Since(t);

  SpanLog spans(sink);
  t = Clock::now();
  DriveSim(sys, warm, spans, nullptr);
  setup.warmup_s = Since(t);
  setup.Report(rep);

  Scrape before;
  if (traced) before = ScrapeRegistry(registry);
  const std::int64_t messages_before = sys.trace().Mark();
  Timed timed;
  spans.set_active(traced);
  const double cpu_before = ProcessCpuSeconds();
  t = Clock::now();
  DriveSim(sys, steps, spans, &timed);
  const double timed_s = Since(t);
  spans.set_active(false);
  const double messages =
      static_cast<double>(sys.trace().Mark() - messages_before);
  timed.Report(rep, timed_s, ProcessCpuSeconds() - cpu_before);
  rep.Set("messages", messages);
  rep.Set("msgs_per_req", Ratio(messages, timed.mechanism()));

  t = Clock::now();
  const Real got = sys.Combine(0);
  const Real want = FoldLastWrites(tree.size(), {&warm, &steps});
  if (!Close(got, want)) {
    std::ostringstream why;
    why << std::setprecision(17) << "root combine " << got
        << " != fold of last writes " << want;
    rep.Fail(why.str());
  }
  rep.Set("verify_s", Since(t));
  if (!traced) return;

  const Scrape after = ScrapeRegistry(registry);
  rep.Set("sim.write_us", spans.mean_us(kWrite));
  rep.Set("sim.combine_us", spans.mean_us(kCombine));
  rep.Set("sim.queue_hwm", after.Sum("treeagg_driver_queue_depth_hwm"));
  rep.Set("sim.span_coverage", Ratio(spans.covered_s(), timed_s));
  ReportCore(rep, before, after, timed.mechanism(), timed_s, messages);
}

void PrintRep(int index, const Rep& rep) {
  std::ostringstream out;
  out << std::setprecision(10) << "{\"rep\": " << index
      << ", \"traced\": " << (rep.traced ? "true" : "false")
      << ", \"ok\": " << (rep.ok ? "true" : "false") << ", \"error\": \""
      << obs::EscapeJson(rep.error) << "\", \"values\": {";
  for (std::size_t i = 0; i < rep.values.size(); ++i) {
    out << (i ? ", " : "") << "\"" << rep.values[i].first
        << "\": " << rep.values[i].second;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N [--seconds S]"
               " [--trace 0|1] [--min-reps R] [--trace-out FILE]\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::string name, trace_out;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false, have_seed = false;
  int min_reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--min-reps") {
      min_reps = std::stoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed) return Usage();
  const auto& all = Workloads();
  const auto w = std::find_if(all.begin(), all.end(),
                              [&](const Workload& x) { return x.name == name; });
  if (w == all.end()) {
    std::cerr << "perfbench: unknown workload '" << name << "'\n";
    return 2;
  }

  const auto run_rep = [&](Rep& rep, obs::TraceEventSink* sink) {
    try {
      (w->net ? RunNetRep : RunSimRep)(*w, seed, rep.traced, sink, rep);
    } catch (const std::exception& e) {
      rep.Fail(std::string("exception: ") + e.what());
      rep.aborted = true;
    }
  };
  PinToOneCpu();
  const Clock::time_point run_start = Clock::now();
  // --trace 1 pairs an untraced rep with a traced one; the spans of the
  // last traced rep go to --trace-out.
  for (int i = 0;; ++i) {
    if (i >= min_reps * (trace ? 2 : 1) && Since(run_start) >= seconds) break;
    Rep rep;
    rep.traced = trace && i % 2 == 1;
    obs::TraceEventSink sink;
    run_rep(rep, rep.traced ? &sink : nullptr);
    if (rep.traced && !trace_out.empty()) sink.WriteFile(trace_out);
    PrintRep(i, rep);
    if (rep.aborted) break;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  std::cout << "{\"peak_rss_mb\": " << std::setprecision(10)
            << static_cast<double>(usage.ru_maxrss) / 1024.0 << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace treeagg

int main(int argc, char** argv) { return treeagg::Main(argc, argv); }
