// In-process client/server integration suite for the serve subsystem
// (src/serve): every test builds a real Server, connects real byte streams
// to it over socketpairs, and speaks the NDJSON protocol end to end —
// admission, worker execution, progress streaming, the cross-request result
// cache, cancellation by disconnect, and graceful shutdown.  Runs under the
// TSan CI job: readers, workers and test clients genuinely race here.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "xatpg/session.hpp"

namespace {

using namespace xatpg;
using json::Value;
using std::chrono::steady_clock;

// --- wire helpers -----------------------------------------------------------

/// One test client endpoint over a socketpair half.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  Client(Client&& other) noexcept : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  Client(const Client&) = delete;
  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Half-close: the server's reader sees EOF, this end can still read.
  void end_writes() { ::shutdown(fd_, SHUT_WR); }

  void send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      ASSERT_GT(n, 0) << "client write failed";
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next newline-terminated frame, or nullopt on EOF / timeout.
  std::optional<std::string> next_line(int timeout_ms = 60000) {
    const auto deadline =
        steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready <= 0) {
        if (ready < 0 && errno == EINTR) continue;
        return std::nullopt;  // timeout
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;  // EOF
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Next frame parsed, with its type checked against `want`; skips
  /// progress frames when `want` is something else (they interleave freely).
  Value expect_frame(const std::string& want) {
    while (true) {
      const std::optional<std::string> line = next_line();
      if (!line) {
        ADD_FAILURE() << "expected a '" << want << "' frame, got EOF/timeout";
        return {};
      }
      const Value frame = json::parse(*line);
      EXPECT_EQ(json::num_field(frame, "v", 0), serve::kProtocolVersion)
          << *line;
      const std::string type = json::string_field(frame, "type");
      if (type == "progress" && want != "progress") continue;
      EXPECT_EQ(type, want) << *line;
      return frame;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A Server plus socketpair plumbing for connecting in-process clients.
class ServeFixture {
 public:
  explicit ServeFixture(serve::ServeConfig config) : server_(config) {
    server_.start();
  }

  Client connect() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server_.attach(sv[0], sv[0], /*owns_fds=*/true);
    return Client(sv[1]);
  }

  serve::Server& server() { return server_; }

  /// Spin (cooperatively) until `pred` holds or the deadline passes.
  template <typename Pred>
  bool wait_until(Pred pred, int timeout_ms = 30000) {
    const auto deadline =
        steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
      if (steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

 private:
  serve::Server server_;
};

std::string submit_benchmark(const std::string& id, const std::string& name,
                             const std::string& style = "si",
                             bool progress = false,
                             const std::string& options = "") {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"circuit\":{\"format\":\"benchmark\",\"name\":\"" + name +
         "\",\"style\":\"" + style + "\"},\"faults\":\"both\",\"progress\":" +
         (progress ? "true" : "false") +
         (options.empty() ? "" : ",\"options\":{" + options + "}") + "}\n";
}

std::string submit_bench_text(const std::string& id, const std::string& text) {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"circuit\":{\"format\":\"bench\",\"text\":\"" +
         json::escape(text) + "\"},\"faults\":\"both\"}\n";
}

/// The byte-exact result payload inside a result frame.  The payload is the
/// frame's final field, so it is the text between `"result":` and the
/// frame-closing brace.
std::string payload_of(const std::string& frame_line) {
  const std::string marker = "\"result\":";
  const std::size_t pos = frame_line.find(marker);
  if (pos == std::string::npos || frame_line.back() != '}') {
    ADD_FAILURE() << "no result payload in: " << frame_line;
    return {};
  }
  return frame_line.substr(pos + marker.size(),
                           frame_line.size() - 1 - (pos + marker.size()));
}

/// What a direct (no daemon) Session run serializes to for the same request
/// — the identity the daemon's responses are asserted against.
std::string direct_payload(Expected<Session> session_or_error) {
  EXPECT_TRUE(session_or_error.has_value());
  Session& session = session_or_error.value();
  std::vector<Fault> universe = session.input_stuck_faults();
  const auto output = session.output_stuck_faults();
  universe.insert(universe.end(), output.begin(), output.end());
  const auto result = session.run(universe);
  EXPECT_TRUE(result.has_value());
  return serve::serialize_result(session.circuit_name(), "both", *result);
}

const char* kSmallBench = R"(
INPUT(a)
INPUT(b)
OUTPUT(f)
n1 = NAND(a, b)
f = NOT(n1)
)";

// --- protocol basics --------------------------------------------------------

TEST(Serve, PingPongAndStatsCarryProtocolVersion) {
  ServeFixture fixture({});
  Client client = fixture.connect();
  client.send("{\"op\":\"ping\",\"id\":\"\"}\n");
  client.expect_frame("pong");
  client.send("{\"op\":\"stats\"}\n");
  const Value stats = client.expect_frame("stats");
  EXPECT_EQ(json::size_field(stats, "submitted"), 0u);
  const Value* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(json::size_field(*cache, "hits"), 0u);
}

TEST(Serve, MalformedAndUnknownRequestsGetTypedErrors) {
  ServeFixture fixture({});
  Client client = fixture.connect();

  client.send("this is not json\n");
  Value frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "ParseError");

  client.send("{\"op\":\"frobnicate\",\"id\":\"x\"}\n");
  frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "OptionError");

  // A typo'd option key is rejected, not silently defaulted.
  client.send(submit_benchmark("j1", "fig1a", "si", false, "\"threds\":2"));
  frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "OptionError");

  // So is a key the protocol no longer knows.
  client.send(submit_benchmark("j3", "fig1a", "si", false,
                               "\"use_activation\":false"));
  frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "OptionError");

  // Unknown benchmark names surface the Session factory's taxonomy.
  client.send(submit_benchmark("j2", "no_such_circuit"));
  frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "OptionError");
}

TEST(Serve, SubmitWithKPastTheBoundGetsAnErrorAndNoAck) {
  // Settling fig1b's oscillation takes time linear in k with no cancel
  // point, so a huge k would pin the worker and shutdown behind it.
  ServeFixture fixture({});
  Client client = fixture.connect();
  client.send(submit_benchmark("big-k", "fig1b", "si", false, "\"k\":1048577"));
  const Value frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(frame, "id"), "big-k");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "OptionError");
  // Nothing was queued: the next frame answers the next request.
  client.send("{\"op\":\"ping\",\"id\":\"\"}\n");
  client.expect_frame("pong");
}

TEST(Serve, OversizedRequestLineIsResourceErrorAndCloses) {
  serve::ServeConfig config;
  config.max_request_bytes = 1024;
  ServeFixture fixture(config);
  Client client = fixture.connect();
  client.send(std::string(4096, 'x'));  // no newline: unframed flood
  const Value frame = client.expect_frame("error");
  EXPECT_EQ(json::string_field(*frame.find("error"), "code"), "ResourceError");
  EXPECT_FALSE(client.next_line(5000).has_value());  // connection closed
}

// --- correctness: daemon responses == direct Session runs -------------------

TEST(Serve, ResponsesByteIdenticalToDirectRuns) {
  ServeFixture fixture({});
  Client client = fixture.connect();

  client.send(submit_benchmark("named", "chu150"));
  client.expect_frame("ack");
  std::optional<std::string> line;
  for (line = client.next_line(); line; line = client.next_line()) {
    if (json::string_field(json::parse(*line), "type") == "result") break;
  }
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(payload_of(*line), direct_payload(Session::from_benchmark("chu150")));

  // A .bench-text circuit takes the canonicalization path: the daemon
  // re-emits the text as .xnl before running (so formatting variants of
  // one circuit share a cache entry), which deterministically renumbers
  // gates.  The response is byte-identical to a direct run on the
  // canonicalized text — PROTOCOL.md documents that fault sites in the
  // payload index the canonical circuit, not the submitted text.
  client.send(submit_bench_text("inline", kSmallBench));
  client.expect_frame("ack");
  for (line = client.next_line(); line; line = client.next_line()) {
    if (json::string_field(json::parse(*line), "type") == "result") break;
  }
  ASSERT_TRUE(line.has_value());
  Expected<Session> bench = Session::from_bench(kSmallBench);
  ASSERT_TRUE(bench.has_value());
  EXPECT_EQ(payload_of(*line),
            direct_payload(Session::from_xnl(bench->circuit_xnl())));
}

TEST(Serve, EightConcurrentClientsMixedCircuitsByteIdentical) {
  const std::vector<std::string> circuits = {
      "chu150", "fig1a",  "fig1b",     "ebergen",
      "nowick", "rpdft",  "rcv-setup", "chu150",
  };
  // Direct expectations first, one per unique circuit.
  std::vector<std::string> expected;
  expected.reserve(circuits.size());
  for (const std::string& name : circuits)
    expected.push_back(direct_payload(Session::from_benchmark(name)));

  serve::ServeConfig config;
  config.workers = 2;
  ServeFixture fixture(config);

  std::vector<Client> clients;
  clients.reserve(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i)
    clients.push_back(fixture.connect());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& client = clients[i];
      // Odd clients also stream progress, so progress frames race result
      // frames across connections while workers interleave.
      client.send(submit_benchmark("job-" + std::to_string(i), circuits[i],
                                   "si", i % 2 == 1));
      for (std::optional<std::string> line = client.next_line(); line;
           line = client.next_line()) {
        const std::string type = json::string_field(json::parse(*line), "type");
        if (type == "error" || type == "cancelled") {
          ++mismatches;
          return;
        }
        if (type == "result") {
          if (payload_of(*line) != expected[i]) ++mismatches;
          return;
        }
      }
      ++mismatches;  // EOF before a result
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.completed, circuits.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

// --- cross-request result cache ---------------------------------------------

TEST(Serve, RepeatRequestServedFromCacheTenTimesFaster) {
  ServeFixture fixture({});
  Client client = fixture.connect();

  client.send(submit_benchmark("cold", "mmu", "bd"));
  client.expect_frame("ack");
  std::optional<std::string> line;
  for (line = client.next_line(); line; line = client.next_line())
    if (json::string_field(json::parse(*line), "type") == "result") break;
  ASSERT_TRUE(line.has_value());
  const Value cold = json::parse(*line);
  EXPECT_FALSE(cold.find("cached")->boolean);
  const double cold_ms = json::num_field(cold, "engine_ms", 0);
  const std::string cold_payload = payload_of(*line);
  EXPECT_GT(cold_ms, 1.0);  // mmu/bd is a real run, tens of milliseconds

  client.send(submit_benchmark("hot", "mmu", "bd"));
  line = client.next_line();
  ASSERT_TRUE(line.has_value());
  const Value hot = json::parse(*line);
  EXPECT_EQ(json::string_field(hot, "type"), "result") << *line;
  EXPECT_TRUE(hot.find("cached")->boolean);
  // Byte-identical payload, and >= 10x lower engine time (a cache hit does
  // no engine work at all, so its engine_ms is identically zero).
  EXPECT_EQ(payload_of(*line), cold_payload);
  EXPECT_LE(json::num_field(hot, "engine_ms", 1e9), cold_ms / 10.0);

  const serve::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.insertions, 1u);
}

TEST(Serve, CacheKeyIgnoresResultInvariantKnobs) {
  // threads does not change results (the determinism suites prove it), so
  // requests differing only in threads share one cache entry.
  ServeFixture fixture({});
  Client client = fixture.connect();
  client.send(submit_benchmark("t1", "fig1a", "si", false, "\"threads\":1"));
  client.expect_frame("ack");
  client.expect_frame("result");
  client.send(submit_benchmark("t2", "fig1a", "si", false, "\"threads\":2"));
  const Value hot = client.expect_frame("result");
  EXPECT_TRUE(hot.find("cached")->boolean);

  // A knob that DOES change results (the seed) must miss.
  client.send(submit_benchmark("t3", "fig1a", "si", false, "\"seed\":7"));
  client.expect_frame("ack");
  const Value other = client.expect_frame("result");
  EXPECT_FALSE(other.find("cached")->boolean);
}

TEST(Serve, CacheEvictsLruUnderByteCap) {
  serve::ResultCache cache(64);
  std::string out;
  cache.insert("a", std::string(20, 'x'));  // 21 bytes
  cache.insert("b", std::string(20, 'y'));  // 42 bytes
  EXPECT_TRUE(cache.lookup("a", out));      // refresh: b is now LRU
  cache.insert("c", std::string(20, 'z'));  // 63 bytes: fits
  cache.insert("d", std::string(20, 'w'));  // evicts b (LRU), then fits
  EXPECT_TRUE(cache.lookup("a", out));
  EXPECT_FALSE(cache.lookup("b", out));
  EXPECT_TRUE(cache.lookup("c", out));
  EXPECT_TRUE(cache.lookup("d", out));
  cache.insert("huge", std::string(100, 'h'));  // over the whole cap: refused
  EXPECT_FALSE(cache.lookup("huge", out));
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, 64u);
}

// --- admission control ------------------------------------------------------

TEST(Serve, QueueFullSubmissionsGetTypedRejectionNotHang) {
  serve::ServeConfig config;
  config.workers = 0;  // nothing drains: queue occupancy is deterministic
  config.queue_capacity = 2;
  ServeFixture fixture(config);
  Client client = fixture.connect();

  client.send(submit_benchmark("q1", "fig1a"));
  client.send(submit_benchmark("q2", "fig1b"));
  client.send(submit_benchmark("q3", "chu150"));
  client.expect_frame("ack");
  client.expect_frame("ack");
  const Value rejection = client.expect_frame("error");
  EXPECT_EQ(json::string_field(rejection, "id"), "q3");
  const Value* error = rejection.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(json::string_field(*error, "code"), "ResourceError");
  EXPECT_NE(json::string_field(*error, "message").find("queue full"),
            std::string::npos);
  EXPECT_EQ(fixture.server().stats().rejected, 1u);

  // Shutdown cancels what was queued (never started) and says goodbye.
  fixture.server().shutdown();
  Value cancelled = client.expect_frame("cancelled");
  EXPECT_EQ(json::string_field(cancelled, "reason"), "shutdown");
  cancelled = client.expect_frame("cancelled");
  EXPECT_EQ(json::string_field(cancelled, "reason"), "shutdown");
  client.expect_frame("bye");
  EXPECT_EQ(fixture.server().stats().cancelled, 2u);
}

// --- cancellation by disconnect ---------------------------------------------

TEST(Serve, DisconnectMidRunCancelsOnlyThatJob) {
  serve::ServeConfig config;
  config.workers = 1;  // one worker: the victim job runs, the other queues
  ServeFixture fixture(config);

  Client victim = fixture.connect();
  Client bystander = fixture.connect();

  // vbe10b/bd is the corpus's long run — progress frames prove it is
  // genuinely mid-run before the disconnect.
  victim.send(submit_benchmark("victim", "vbe10b", "bd", /*progress=*/true));
  victim.expect_frame("ack");
  bystander.send(submit_benchmark("bystander", "chu150"));
  bystander.expect_frame("ack");

  victim.expect_frame("progress");
  victim.close();  // mid-run disconnect

  // The bystander's job is untouched: it runs next and completes.
  const Value result = bystander.expect_frame("result");
  EXPECT_EQ(json::string_field(result, "id"), "bystander");

  // The victim's job ended cancelled, observed via stats.
  EXPECT_TRUE(fixture.wait_until(
      [&] { return fixture.server().stats().cancelled == 1; }))
      << "victim job was not cancelled";
  const serve::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(fixture.wait_until([&] { return fixture.server().drained(); }));
}

TEST(Serve, ClosedConnectionsReleaseTheirDescriptorsBeforeShutdown) {
  // A long-lived socket daemon gains one connection per client; each must
  // give its descriptors back when the client leaves, not at shutdown.
  const auto open_fds = [] {
    const std::filesystem::directory_iterator fds("/proc/self/fd");
    return static_cast<std::size_t>(
        std::distance(std::filesystem::begin(fds), std::filesystem::end(fds)));
  };
  ServeFixture fixture({});
  const std::size_t before = open_fds();
  for (int i = 0; i < 64; ++i) fixture.connect().close();
  EXPECT_TRUE(fixture.wait_until([&] { return open_fds() <= before; }, 10000))
      << open_fds() - before << " descriptors held after 64 closed clients";
}

TEST(Serve, ClosedConnectionsReleaseTheirReaderThreadsBeforeShutdown) {
  // A reader thread whose client left keeps its stack mapped until it is
  // joined, about 8 MB of address space each: 64 departed clients would
  // hold about 0.5 GB until shutdown.
  const auto vm_size_mb = [] {
    std::ifstream status("/proc/self/status");
    std::string key;
    double kb = 0;
    while (status >> key) {
      if (key == "VmSize:") {
        status >> kb;
        break;
      }
    }
    return kb / 1024;
  };
  ServeFixture fixture({});
  // Each client half-closes and waits for the server's EOF, so its reader
  // has ended before the next attach.  The first one also warms up what a
  // reader thread allocates once per process.
  const auto leave = [&] {
    Client client = fixture.connect();
    client.end_writes();
    EXPECT_FALSE(client.next_line(10000).has_value());
  };
  leave();
  const double before = vm_size_mb();
  for (int i = 0; i < 64; ++i) leave();
  EXPECT_LT(vm_size_mb() - before, 128.0)
      << "VmSize grew by " << vm_size_mb() - before
      << " MB over 64 closed clients";
}

// --- graceful shutdown ------------------------------------------------------

TEST(Serve, ShutdownRequestDrainsInFlightAndSaysBye) {
  serve::ServeConfig config;
  config.workers = 1;
  ServeFixture fixture(config);
  Client client = fixture.connect();

  client.send(submit_benchmark("last", "fig1a"));
  client.expect_frame("ack");
  client.expect_frame("result");  // in-flight work drains to completion
  client.send("{\"op\":\"shutdown\"}\n");
  fixture.server().shutdown();
  client.expect_frame("bye");
  EXPECT_FALSE(client.next_line(5000).has_value());  // EOF after bye
  EXPECT_TRUE(fixture.server().drained());
}

// --- Session concurrency contract (satellite: one session per job) ----------

TEST(SessionContract, ReentrantRunThrowsCheckError) {
  Expected<Session> session = Session::from_benchmark("fig1a");
  ASSERT_TRUE(session.has_value());

  struct ReentrantObserver : RunObserver {
    Session* session = nullptr;
    bool threw = false;
    void poke() {
      if (threw) return;
      try {
        (void)session->run({});
      } catch (const CheckError&) {
        threw = true;
      }
    }
    void on_progress(const RunProgress&) override { poke(); }
    void on_fault_resolved(std::size_t, const FaultOutcome&) override {
      poke();
    }
  } observer;
  observer.session = &session.value();

  // The outer run must stay healthy: the violation is reported to the
  // offending caller (the observer), not smuggled into the outer result.
  const auto result =
      session->run(session->input_stuck_faults(), &observer);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->cancelled);
  EXPECT_TRUE(observer.threw)
      << "reentrant Session::run did not throw CheckError";

  // And the Session still works after the rejected reentrant call.
  const auto again = session->run(session->input_stuck_faults());
  ASSERT_TRUE(again.has_value());
}

}  // namespace
