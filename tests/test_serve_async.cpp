// ftl::serve async transport — the behaviors the epoll event loop adds on
// top of the blocking protocol tests in test_serve.cpp: request pipelining
// (many requests in one send, responses in request order), graceful drain
// with pipelined requests still in flight, slow consumers that force the
// server through its partial-write path, the consistent-hash ring, the
// sharded-cache counters, and the multi-endpoint loadgen. Everything runs
// in-process on ephemeral ports.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ftl/serve/client.hpp"
#include "ftl/serve/hashring.hpp"
#include "ftl/serve/json.hpp"
#include "ftl/serve/loadgen.hpp"
#include "ftl/serve/server.hpp"
#include "ftl/serve/service.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::serve::Client;
using ftl::serve::HashRing;
using ftl::serve::JsonValue;
using ftl::serve::Server;
using ftl::serve::ServerOptions;
using ftl::serve::Service;

// The request mix used across these tests: cheap pure ops with distinct
// responses, so in-order delivery is distinguishable from any shuffle.
std::vector<std::string> pipelined_mix(int count) {
  std::vector<std::string> lines;
  const char* exprs[] = {"a b + b c + a c", "a b", "a + b", "a b' + a' b"};
  for (int i = 0; i < count; ++i) {
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::str(i % 2 == 0 ? "eval" : "synth"));
    req.set("expr", JsonValue::str(exprs[i % 4]));
    req.set("id", JsonValue::number(i));
    lines.push_back(req.dump());
  }
  return lines;
}

// --- pipelining -----------------------------------------------------------

TEST(ServePipeline, BatchedRequestsAnswerInOrderByteIdentically) {
  Service service({.workers = 2, .queue_depth = 256});
  Server server(service, ServerOptions{.port = 0, .event_loops = 2});
  server.start();

  const std::vector<std::string> lines = pipelined_mix(32);

  // Serial reference: one request per round trip.
  std::vector<std::string> expected;
  {
    Client serial("127.0.0.1", server.port());
    for (const std::string& line : lines) {
      expected.push_back(serial.call_line(line));
    }
  }

  // Pipelined: all 32 in a single send(2), then 32 reads. The server must
  // answer in request order even though workers race on the middle ones.
  Client client("127.0.0.1", server.port());
  client.send_lines(lines);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(client.recv_line(), expected[i]) << "request " << i;
  }
  server.stop();
}

TEST(ServePipeline, InterleavedBatchesKeepPerConnectionOrder) {
  Service service({.workers = 4, .queue_depth = 256});
  Server server(service, ServerOptions{.port = 0, .event_loops = 2});
  server.start();

  const std::vector<std::string> lines = pipelined_mix(16);
  std::vector<std::string> expected;
  {
    Client serial("127.0.0.1", server.port());
    for (const std::string& line : lines) {
      expected.push_back(serial.call_line(line));
    }
  }

  // Two connections pipelining the same batch concurrently: each sees its
  // own responses in its own request order.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      Client client("127.0.0.1", server.port());
      client.send_lines(lines);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(client.recv_line(), expected[i]) << "request " << i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.stop();
}

// --- graceful drain with pipelined requests in flight ---------------------

TEST(ServeDrain, StopCompletesPipelinedInFlightRequests) {
  Service service({.workers = 2, .queue_depth = 64});
  Server server(service, ServerOptions{.port = 0, .event_loops = 1});
  server.start();

  // Pipeline a burst of slow-ish requests, then stop the server while they
  // are still in flight. Every queued request must still get its response,
  // in order, before the connection closes.
  const int kInFlight = 8;
  std::vector<std::string> lines;
  for (int i = 0; i < kInFlight; ++i) {
    lines.push_back(R"({"op":"sleep","ms":20,"id":)" + std::to_string(i) +
                    "}");
  }
  Client client("127.0.0.1", server.port());
  client.send_lines(lines);

  // The burst is one coalesced write and the edge-triggered read drains the
  // socket buffer whole, so once response 0 arrives every request in the
  // burst has been parsed and is in flight. Stopping before that first read
  // is a different (also valid) outcome — SHUT_RD drops never-read bytes and
  // the client just sees a close — so pin the race to the in-flight side.
  {
    const JsonValue r0 = JsonValue::parse(client.recv_line());
    EXPECT_TRUE(r0.bool_or("ok", false)) << r0.dump();
    EXPECT_DOUBLE_EQ(r0.find("id")->as_number(), 0);
  }

  std::thread stopper([&] { server.stop(); });
  // Collect before asserting: recv_line throws on a dropped response, and an
  // exception past a joinable stopper would terminate instead of failing.
  std::vector<std::string> rest;
  bool closed_after = false;
  try {
    for (int i = 1; i < kInFlight; ++i) rest.push_back(client.recv_line());
    client.recv_line();  // after the drain the server closes the connection
  } catch (const ftl::Error&) {
    closed_after = true;
  }
  stopper.join();
  ASSERT_EQ(rest.size(), static_cast<std::size_t>(kInFlight - 1));
  EXPECT_TRUE(closed_after);  // the close came after the responses, not instead
  for (int i = 1; i < kInFlight; ++i) {
    const JsonValue r = JsonValue::parse(rest[static_cast<std::size_t>(i - 1)]);
    EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
    EXPECT_DOUBLE_EQ(r.find("id")->as_number(), i);
  }
  EXPECT_TRUE(service.draining());
}

// --- slow client / partial writes -----------------------------------------

TEST(ServeSlowClient, TinyReceiveBufferStillGetsEveryByte) {
  Service service({.workers = 2, .queue_depth = 256});
  Server server(service, ServerOptions{.port = 0, .event_loops = 1});
  server.start();

  // paths with a list is the largest response in the protocol — thousands
  // of bytes — so a tiny client receive buffer forces the server through
  // EAGAIN and partial sendmsg() returns while the pipeline keeps feeding.
  const std::string big = R"({"op":"paths","rows":6,"cols":6,"list_limit":200})";
  std::string expected;
  {
    Client reference("127.0.0.1", server.port());
    expected = reference.call_line(big);
  }
  ASSERT_GT(expected.size(), 4096u);

  Client slow("127.0.0.1", server.port());
  slow.set_receive_buffer(1024);  // kernel clamps, but stays tiny
  const int kRepeats = 8;
  slow.send_lines(std::vector<std::string>(kRepeats, big));
  for (int i = 0; i < kRepeats; ++i) {
    // The ~2 KB receive window holds back megabytes of queued responses, so
    // the server's writes return short or EAGAIN throughout; every byte must
    // still arrive exactly once, in order.
    EXPECT_EQ(slow.recv_line(), expected) << "response " << i;
  }
  server.stop();
}

// --- cache counters -------------------------------------------------------

TEST(ServeCacheCounters, StatsReportsShardAndLineCacheActivity) {
  Service service({.workers = 1});
  const auto counters = [&service] {
    const JsonValue r =
        JsonValue::parse(service.handle_now(R"({"op":"stats"})"));
    const JsonValue* cc = r.find("cache_core");
    EXPECT_NE(cc, nullptr) << r.dump();
    struct Snapshot {
      double memory_hits, memory_misses, line_hits, stores;
    };
    return Snapshot{cc->find("memory_hits")->as_number(),
                    cc->find("memory_misses")->as_number(),
                    cc->find("line_hits")->as_number(),
                    cc->find("stores")->as_number()};
  };
  const JsonValue stats0 =
      JsonValue::parse(service.handle_now(R"({"op":"stats"})"));
  EXPECT_DOUBLE_EQ(stats0.find("cache_core")->find("shards")->as_number(),
                   16.0);

  const auto before = counters();
  const std::string line = R"({"op":"eval","expr":"a b + b c + a c"})";
  service.handle_now(line);  // cold: memory miss + store
  const auto after_miss = counters();
  EXPECT_DOUBLE_EQ(after_miss.memory_misses, before.memory_misses + 1.0);
  EXPECT_DOUBLE_EQ(after_miss.stores, before.stores + 1.0);

  service.handle_now(line);  // verbatim repeat: line-cache hit, no parse
  const auto after_line = counters();
  EXPECT_DOUBLE_EQ(after_line.line_hits, after_miss.line_hits + 1.0);

  // Same request, different spelling: misses the line cache but hits the
  // canonical memo (same content-addressed key).
  service.handle_now(R"({"op":"eval", "expr":"a b + b c + a c"})");
  const auto after_memo = counters();
  EXPECT_DOUBLE_EQ(after_memo.memory_hits, after_line.memory_hits + 1.0);
}

TEST(ServeCacheCounters, PerOpHitAndMissCountsInStats) {
  Service service({.workers = 1});
  const std::string line = R"({"op":"eval","expr":"a b"})";
  service.handle_now(line);
  service.handle_now(line);
  service.handle_now(line);
  const JsonValue snap = service.stats().snapshot();
  const JsonValue* eval = snap.find("ops")->find("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_DOUBLE_EQ(eval->find("cache_misses")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(eval->find("cache_hits")->as_number(), 2.0);
}

TEST(ServeCacheCounters, SubmittedMissProbesTheMemoOnce) {
  Service service({.workers = 1});
  const auto misses = [&service] {
    const JsonValue r =
        JsonValue::parse(service.handle_now(R"({"op":"stats"})"));
    return r.find("cache_core")->find("memory_misses")->as_number();
  };
  const double before = misses();
  const JsonValue r = JsonValue::parse(
      service.submit(R"({"op":"eval","expr":"a b' + c"})").get());
  EXPECT_TRUE(r.bool_or("ok", false)) << r.dump();
  // The key is computed and the memo probed at admission only; the worker
  // runs the handler without probing again.
  EXPECT_DOUBLE_EQ(misses(), before + 1.0);
}

// --- consistent-hash ring -------------------------------------------------

TEST(ServeHashRing, MappingIsDeterministicAndOrderIndependent) {
  const std::vector<std::string> nodes = {"h1:1", "h2:2", "h3:3"};
  const std::vector<std::string> reversed = {"h3:3", "h2:2", "h1:1"};
  const HashRing a(nodes);
  const HashRing b(reversed);
  std::set<std::string> owners;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.node_for(key), b.node_for(key)) << key;
    owners.insert(a.node_for(key));
  }
  // 200 keys over 3 nodes with 64 vnodes each: every node owns some keys.
  EXPECT_EQ(owners.size(), nodes.size());
}

TEST(ServeHashRing, RemovingANodeOnlyRemapsItsOwnKeys) {
  const HashRing full({"h1:1", "h2:2", "h3:3"});
  const HashRing reduced({"h1:1", "h2:2"});
  int moved = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string& before = full.node_for(key);
    const std::string& after = reduced.node_for(key);
    if (before == "h3:3") {
      ++moved;
      EXPECT_NE(after, "h3:3");
    } else {
      // The consistency property: keys not owned by the removed node
      // must not move at all.
      EXPECT_EQ(after, before) << key;
    }
  }
  EXPECT_GT(moved, 0);  // h3 owned a share before removal
}

TEST(ServeHashRing, RejectsEmptyAndBadConfigs) {
  EXPECT_THROW(HashRing({}), ftl::Error);
  EXPECT_THROW(HashRing({"h1:1"}, 0), ftl::Error);
}

// --- multi-endpoint loadgen ----------------------------------------------

TEST(ServeLoadgen, PipelinedMultiEndpointRunReportsHitRate) {
  Service service_a({.workers = 1, .queue_depth = 64});
  Service service_b({.workers = 1, .queue_depth = 64});
  Server server_a(service_a, ServerOptions{.port = 0, .event_loops = 1});
  Server server_b(service_b, ServerOptions{.port = 0, .event_loops = 1});
  server_a.start();
  server_b.start();

  ftl::serve::LoadgenOptions options;
  options.endpoints = {"127.0.0.1:" + std::to_string(server_a.port()),
                       "127.0.0.1:" + std::to_string(server_b.port())};
  options.connections = 2;
  options.requests = 800;
  options.pipeline = 16;
  // 32 distinct pure (cacheable) lines: the ring mapping depends on the
  // ephemeral port numbers, so a handful of lines could all land on one
  // endpoint by chance — 32 across 2 nodes makes an empty side a ~2^-31
  // event.
  for (int r = 1; r <= 8; ++r) {
    for (int c = 1; c <= 4; ++c) {
      options.mix.push_back(R"({"op":"paths","rows":)" + std::to_string(r) +
                            R"(,"cols":)" + std::to_string(c) + "}");
    }
  }

  const ftl::serve::LoadgenReport report = ftl::serve::run_loadgen(options);
  EXPECT_EQ(report.sent, options.requests);
  EXPECT_EQ(report.ok, options.requests);
  EXPECT_EQ(report.errors, 0u);
  // Every line repeats ~25x, so nearly all requests are cache hits and the
  // delta-based rate must be known and high (first touch of each of the 32
  // lines is the only miss: >= 768/800).
  EXPECT_GE(report.cache_hit_rate, 0.9);
  EXPECT_LE(report.cache_hit_rate, 1.0);
  // The hash ring routed traffic to both endpoints.
  EXPECT_GT(service_a.stats().total_requests(), 0u);
  EXPECT_GT(service_b.stats().total_requests(), 0u);

  server_a.stop();
  server_b.stop();
}

}  // namespace
