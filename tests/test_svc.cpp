// Simulation-service tests (docs/service.md): the canonical spec
// codec, the content-addressed ResultStore, the SweepService broker
// (cache serving, in-flight dedup, admission control, failure
// delivery), the wire protocol's framing/hex layers, and the Unix
// socket line transport. The end-to-end daemon path (virec-simd +
// virec-sim --connect) is exercised by the CI service smoke job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/json_parse.hpp"
#include "svc/protocol.hpp"
#include "svc/result_store.hpp"
#include "svc/socket.hpp"
#include "svc/sweep_service.hpp"

namespace virec {
namespace {

/// A point small enough to simulate in a few milliseconds.
sim::RunSpec quick_spec(u32 threads = 2) {
  sim::RunSpec spec;
  spec.workload = "reduce";
  spec.threads_per_core = threads;
  spec.params.iters_per_thread = 8;
  spec.params.elements = 256;
  return spec;
}

/// Deterministic synthetic result with every field populated, so a
/// codec round trip that drops a field cannot pass by accident.
sim::RunResult synthetic_result() {
  sim::RunResult r;
  r.cycles = 123456789;
  r.instructions = 987654321;
  r.ipc = 1.25e-3;
  r.check_ok = true;
  r.check_msg = "ok-ish";
  r.rf_hit_rate = 0.87654321;
  r.context_switches = 4242;
  r.rf_fills = 17;
  r.rf_spills = 19;
  r.avg_dcache_miss_latency = 33.125;
  for (std::size_t b = 0; b < r.cpi_stack.size(); ++b) {
    r.cpi_stack[b] = 0.001 * static_cast<double>(b + 1);
  }
  return r;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpecCodec, SpecRoundTripsExactly) {
  sim::RunSpec spec = quick_spec(4);
  spec.scheme = sim::Scheme::kBanked;
  spec.policy = core::PolicyKind::kPLRU;
  spec.context_fraction = 0.37;
  spec.params.seed = 777;
  spec.dcache_bytes = 8192;
  spec.phys_regs = 48;
  spec.group_spill = true;
  spec.max_cycles = 1'000'000;
  spec.check = true;
  spec.no_skip = true;
  spec.sample_windows = 5;
  spec.window_insts = 2000;
  spec.warmup_insts = 300;

  ckpt::Encoder enc;
  ckpt::encode_spec(enc, spec);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  const sim::RunSpec back = ckpt::decode_spec(dec);
  dec.finish();

  EXPECT_EQ(back.workload, spec.workload);
  EXPECT_EQ(back.scheme, spec.scheme);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.threads_per_core, spec.threads_per_core);
  EXPECT_EQ(back.context_fraction, spec.context_fraction);
  EXPECT_EQ(back.params.seed, spec.params.seed);
  EXPECT_EQ(back.dcache_bytes, spec.dcache_bytes);
  EXPECT_EQ(back.phys_regs, spec.phys_regs);
  EXPECT_EQ(back.group_spill, spec.group_spill);
  EXPECT_EQ(back.max_cycles, spec.max_cycles);
  EXPECT_EQ(back.check, spec.check);
  EXPECT_EQ(back.no_skip, spec.no_skip);
  EXPECT_EQ(back.sample_windows, spec.sample_windows);
  EXPECT_EQ(back.window_insts, spec.window_insts);
  EXPECT_EQ(back.warmup_insts, spec.warmup_insts);
  EXPECT_EQ(ckpt::spec_hash(back), ckpt::spec_hash(spec));
}

TEST(SpecCodec, IdentityIgnoresRunModeFlags) {
  // check/no_skip change how a run is validated/stepped, not its
  // outcome (test_skip.cpp proves bit-equality), so a checked request
  // must hit the cache of an unchecked run.
  sim::RunSpec a = quick_spec();
  sim::RunSpec b = a;
  b.check = true;
  b.no_skip = true;
  EXPECT_EQ(ckpt::spec_hash(a), ckpt::spec_hash(b));

  // Everything outcome-defining must move the hash.
  sim::RunSpec c = a;
  c.params.seed += 1;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(c));
  sim::RunSpec d = a;
  d.sample_windows = 3;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(d));
  sim::RunSpec e = a;
  e.context_fraction = 0.5;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(e));
}

TEST(SpecCodec, ResultRoundTripsBitExactly) {
  const sim::RunResult r = synthetic_result();
  ckpt::Encoder enc;
  ckpt::encode_result(enc, r);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  const sim::RunResult back = ckpt::decode_result(dec);
  dec.finish();

  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.instructions, r.instructions);
  EXPECT_EQ(back.ipc, r.ipc);  // bit pattern, not approximate
  EXPECT_EQ(back.check_ok, r.check_ok);
  EXPECT_EQ(back.check_msg, r.check_msg);
  EXPECT_EQ(back.rf_hit_rate, r.rf_hit_rate);
  EXPECT_EQ(back.context_switches, r.context_switches);
  EXPECT_EQ(back.rf_fills, r.rf_fills);
  EXPECT_EQ(back.rf_spills, r.rf_spills);
  EXPECT_EQ(back.avg_dcache_miss_latency, r.avg_dcache_miss_latency);
  for (std::size_t b = 0; b < r.cpi_stack.size(); ++b) {
    EXPECT_EQ(back.cpi_stack[b], r.cpi_stack[b]);
  }
}

TEST(ResultStore, PutLookupRoundTrip) {
  svc::ResultStore store(temp_dir("store_roundtrip"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  const sim::RunResult r = synthetic_result();

  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));
  store.put(hash, spec, r, 1.5);
  ASSERT_TRUE(store.lookup(hash, spec, &out));
  EXPECT_EQ(out.cycles, r.cycles);
  EXPECT_EQ(out.ipc, r.ipc);
  EXPECT_EQ(store.size(), 1u);

  svc::StoreEntry entry;
  ASSERT_TRUE(store.lookup_entry(hash, spec, &entry));
  EXPECT_EQ(entry.wall_secs, 1.5);
  EXPECT_FALSE(entry.provenance.empty());
}

TEST(ResultStore, IdentityMismatchReadsAsMiss) {
  // Same hash key, different spec (as after a codec change or a hash
  // collision): the embedded identity bytes must reject the entry.
  svc::ResultStore store(temp_dir("store_identity"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, synthetic_result());

  sim::RunSpec other = spec;
  other.params.seed += 1;
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, other, &out));
  EXPECT_TRUE(store.lookup(hash, spec, &out));
}

TEST(ResultStore, CorruptEntryReadsAsMissAndVerifyRepairs) {
  svc::ResultStore store(temp_dir("store_corrupt"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, synthetic_result());

  // Flip a byte in the middle of the entry file.
  const std::string path = store.entry_path(hash);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.read(&b, 1);
    f.seekp(40);
    b = static_cast<char>(b ^ 0x5a);
    f.write(&b, 1);
  }
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));

  svc::ResultStore::VerifyReport report = store.verify(/*repair=*/false);
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(store.size(), 1u);  // report-only: file kept
  report = store.verify(/*repair=*/true);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(store.size(), 0u);

  // Truncation is also just a miss.
  store.put(hash, spec, synthetic_result());
  std::filesystem::resize_file(path, 10);
  EXPECT_FALSE(store.lookup(hash, spec, &out));
}

TEST(ResultStore, GcKeepsNewestEntries) {
  svc::ResultStore store(temp_dir("store_gc"));
  std::vector<sim::RunSpec> specs;
  for (u32 t = 1; t <= 4; ++t) {
    specs.push_back(quick_spec(t));
    store.put(ckpt::spec_hash(specs.back()), specs.back(),
              synthetic_result());
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.gc(10), 0u);  // under the cap: nothing removed
  EXPECT_EQ(store.gc(2), 2u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ResultStore, GcEqualMtimesEvictDeterministically) {
  // Coarse-mtime filesystems land a whole burst of writes on one
  // timestamp; eviction must then be decided by the entry name (the
  // spec hash), not directory-iteration order.
  const std::string dir = temp_dir("store_gc_ties");
  svc::ResultStore store(dir);
  for (u32 t = 1; t <= 4; ++t) {
    const sim::RunSpec spec = quick_spec(t);
    store.put(ckpt::spec_hash(spec), spec, synthetic_result());
  }
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".vres") {
      names.push_back(e.path().filename().string());
    }
  }
  ASSERT_EQ(names.size(), 4u);
  const auto stamp = std::filesystem::file_time_type::clock::now();
  for (const std::string& n : names) {
    std::filesystem::last_write_time(std::filesystem::path(dir) / n, stamp);
  }
  EXPECT_EQ(store.gc(2), 2u);
  // Equal mtimes, so the survivors are exactly the two smallest names.
  std::sort(names.begin(), names.end());
  std::vector<std::string> survivors;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".vres") {
      survivors.push_back(e.path().filename().string());
    }
  }
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(survivors,
            std::vector<std::string>(names.begin(), names.begin() + 2));
}

TEST(SweepService, SecondSubmitIsAllCacheHits) {
  svc::ResultStore store(temp_dir("svc_cache"));
  svc::SweepService service(svc::ServiceConfig{2, 64, 0.01}, &store);
  const std::vector<sim::RunSpec> grid = {quick_spec(2), quick_spec(4)};

  svc::SweepTicket first = service.submit("a", grid, {});
  first.wait();
  EXPECT_EQ(first.counts().points, 2u);
  EXPECT_EQ(first.counts().executed, 2u);
  EXPECT_EQ(first.counts().failed, 0u);

  std::atomic<std::size_t> streamed{0};
  svc::SweepTicket second = service.submit(
      "b", grid,
      [&](std::size_t, const sim::RunResult* result,
          svc::PointSource source, const std::string&) {
        EXPECT_NE(result, nullptr);
        EXPECT_EQ(source, svc::PointSource::kStoreHit);
        ++streamed;
      });
  second.wait();
  EXPECT_EQ(second.counts().store_hits, 2u);
  EXPECT_EQ(second.counts().executed, 0u);
  EXPECT_EQ(streamed.load(), 2u);
  EXPECT_EQ(service.stats().executed, 2u);  // nothing ran twice
  EXPECT_EQ(store.size(), 2u);
}

TEST(SweepService, ColdStoreServesAcrossServiceRestart) {
  const std::string dir = temp_dir("svc_restart");
  const std::vector<sim::RunSpec> grid = {quick_spec(2)};
  sim::RunResult first_result;
  {
    svc::ResultStore store(dir);
    svc::SweepService service(svc::ServiceConfig{1, 64, 0.01}, &store);
    svc::SweepTicket t = service.submit(
        "a", grid,
        [&](std::size_t, const sim::RunResult* r, svc::PointSource,
            const std::string&) { first_result = *r; });
    t.wait();
    EXPECT_EQ(t.counts().executed, 1u);
  }
  // "Restarted daemon": a fresh service over the same directory serves
  // the point from disk, bit-identically.
  svc::ResultStore store(dir);
  svc::SweepService service(svc::ServiceConfig{1, 64, 0.01}, &store);
  sim::RunResult again;
  svc::SweepTicket t = service.submit(
      "b", grid,
      [&](std::size_t, const sim::RunResult* r, svc::PointSource,
          const std::string&) { again = *r; });
  t.wait();
  EXPECT_EQ(t.counts().store_hits, 1u);
  EXPECT_EQ(service.stats().executed, 0u);
  EXPECT_EQ(again.cycles, first_result.cycles);
  EXPECT_EQ(again.ipc, first_result.ipc);
}

TEST(SweepService, ConcurrentOverlappingSubmitsExecuteEachPointOnce) {
  svc::ResultStore store(temp_dir("svc_dedup"));
  svc::SweepService service(svc::ServiceConfig{2, 64, 0.01}, &store);
  // Two "clients" race the same two-point grid from separate threads.
  const std::vector<sim::RunSpec> grid = {quick_spec(2), quick_spec(4)};
  svc::SweepTicket tickets[2];
  std::thread clients[2];
  for (int c = 0; c < 2; ++c) {
    clients[c] = std::thread([&service, &grid, &tickets, c] {
      tickets[c] =
          service.submit(c == 0 ? "a" : "b", grid, {});
      tickets[c].wait();
    });
  }
  for (std::thread& t : clients) t.join();

  // However the race lands (dedup onto the in-flight run, or a store/
  // memo hit after it finishes), each unique point ran exactly once.
  EXPECT_EQ(service.stats().executed, 2u);
  for (const svc::SweepTicket& t : tickets) {
    const svc::SweepTicket::Counts counts = t.counts();
    EXPECT_EQ(counts.failed, 0u);
    EXPECT_EQ(counts.executed + counts.store_hits + counts.dedup_hits, 2u);
  }
}

TEST(SweepService, DuplicatePointsWithinOneBatchCoalesce) {
  svc::SweepService service(svc::ServiceConfig{1, 64, 0.01}, nullptr);
  const sim::RunSpec spec = quick_spec();
  svc::SweepTicket t = service.submit("a", {spec, spec, spec}, {});
  t.wait();
  const svc::SweepTicket::Counts counts = t.counts();
  EXPECT_EQ(counts.points, 3u);
  EXPECT_EQ(counts.failed, 0u);
  EXPECT_EQ(service.stats().executed, 1u);
  EXPECT_EQ(counts.executed + counts.store_hits + counts.dedup_hits, 3u);
}

TEST(SweepService, AdmissionControlRejectsWholeBatch) {
  svc::SweepService service(svc::ServiceConfig{1, 1, 0.125}, nullptr);
  // Three unique points against a pending limit of one: rejected whole,
  // before anything is queued.
  const std::vector<sim::RunSpec> grid = {quick_spec(2), quick_spec(3),
                                          quick_spec(4)};
  try {
    service.submit("a", grid, {});
    FAIL() << "expected ServiceBusy";
  } catch (const svc::ServiceBusy& busy) {
    EXPECT_EQ(busy.retry_after_secs, 0.125);
  }
  EXPECT_EQ(service.stats().pending, 0u);
  // A batch that fits still goes through afterwards.
  svc::SweepTicket t = service.submit("a", {quick_spec(2)}, {});
  t.wait();
  EXPECT_EQ(t.counts().executed, 1u);
}

TEST(SweepService, CancelReclaimsDisconnectedClientsSlots) {
  // A client vanishing mid-stream (the daemon calls cancel() when it
  // notices) must release the admission slots of its unstarted points;
  // an execution another client dedup-joined survives and still
  // delivers to the survivor.
  svc::SweepService service(svc::ServiceConfig{1, 64, 0.01}, nullptr);

  // A deliberately slow first point pins the single worker so the rest
  // of the batch is still queued when the client "disconnects".
  sim::RunSpec blocker = quick_spec();
  blocker.workload = "gather";
  blocker.params.iters_per_thread = 2000;
  blocker.params.elements = 1 << 14;
  const std::vector<sim::RunSpec> batch = {blocker, quick_spec(2),
                                           quick_spec(3), quick_spec(4)};
  svc::SweepTicket gone = service.submit("gone", batch, {});
  for (int i = 0; i < 5000 && service.stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().inflight, 1u);
  ASSERT_EQ(service.stats().pending, 3u);

  // A second client dedup-joins one of the queued points.
  std::atomic<std::size_t> survivor_points{0};
  svc::SweepTicket stay = service.submit(
      "stay", {quick_spec(2)},
      [&](std::size_t, const sim::RunResult* result, svc::PointSource source,
          const std::string&) {
        EXPECT_NE(result, nullptr);
        EXPECT_EQ(source, svc::PointSource::kDedup);
        ++survivor_points;
      });

  // Only the two waiterless queued points are reclaimed: the
  // dedup-joined one must still run, the running one must finish.
  EXPECT_EQ(service.cancel("gone"), 2u);
  EXPECT_EQ(service.stats().pending, 1u);
  gone.wait();  // every waiter of "gone" was failed, so this returns
  EXPECT_EQ(gone.counts().failed, 4u);
  EXPECT_EQ(gone.counts().executed, 0u);

  stay.wait();
  EXPECT_EQ(survivor_points.load(), 1u);
  EXPECT_EQ(stay.counts().dedup_hits, 1u);
  EXPECT_EQ(stay.counts().failed, 0u);

  // Exactly the blocker and the dedup survivor ran; the reclaimed
  // points never started and their slots are free again.
  EXPECT_EQ(service.stats().executed, 2u);
  EXPECT_EQ(service.stats().pending, 0u);
  svc::SweepTicket retry = service.submit("b", {quick_spec(3)}, {});
  retry.wait();
  EXPECT_EQ(retry.counts().executed, 1u);
}

TEST(SweepService, FailedPointsDeliverErrorsAndAreNotCached) {
  svc::SweepService service(svc::ServiceConfig{1, 64, 0.01}, nullptr);
  sim::RunSpec bad = quick_spec();
  bad.workload = "no-such-kernel";
  std::string error;
  svc::SweepTicket t = service.submit(
      "a", {bad},
      [&](std::size_t, const sim::RunResult* result, svc::PointSource,
          const std::string& e) {
        EXPECT_EQ(result, nullptr);
        error = e;
      });
  t.wait();
  EXPECT_EQ(t.counts().failed, 1u);
  EXPECT_NE(error.find("no-such-kernel"), std::string::npos) << error;
  // Failures are not memoized: the retry runs (and fails) again rather
  // than serving a cached error.
  svc::SweepTicket retry = service.submit("a", {bad}, {});
  retry.wait();
  EXPECT_EQ(retry.counts().failed, 1u);
  EXPECT_EQ(service.stats().failed, 2u);
}

TEST(SweepService, CorruptStoreEntryCausesCleanRerun) {
  svc::ResultStore store(temp_dir("svc_corrupt"));
  svc::SweepService* service =
      new svc::SweepService(svc::ServiceConfig{1, 64, 0.01}, &store);
  const sim::RunSpec spec = quick_spec();
  svc::SweepTicket t = service->submit("a", {spec}, {});
  t.wait();
  delete service;  // drop the in-memory memo; only the disk copy stays

  const std::string path = store.entry_path(ckpt::spec_hash(spec));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.write("\xff\xff\xff\xff", 4);
  }
  svc::SweepService fresh(svc::ServiceConfig{1, 64, 0.01}, &store);
  svc::SweepTicket rerun = fresh.submit("a", {spec}, {});
  rerun.wait();
  EXPECT_EQ(rerun.counts().executed, 1u);  // corrupt hit became a re-run
  EXPECT_EQ(rerun.counts().failed, 0u);
  // ... and the store healed: the rewritten entry verifies clean.
  EXPECT_EQ(store.verify(false).corrupt, 0u);
}

TEST(Protocol, FrameRoundTripAndCorruptionDetection) {
  const std::string body = "{\"type\":\"ping\"}";
  const std::string line = svc::proto::frame(body);
  EXPECT_EQ(line.back(), '\n');
  std::string back;
  ASSERT_TRUE(svc::proto::unframe(line, &back));
  EXPECT_EQ(back, body);

  std::string corrupted = line;
  corrupted[2] ^= 0x01;
  EXPECT_FALSE(svc::proto::unframe(corrupted, &back));
  EXPECT_FALSE(svc::proto::unframe("too short", &back));
  EXPECT_FALSE(svc::proto::unframe("", &back));
}

TEST(Protocol, HexRoundTrip) {
  const std::vector<u8> bytes = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = svc::proto::to_hex(bytes);
  EXPECT_EQ(hex, "0001abff7f");
  std::vector<u8> back;
  ASSERT_TRUE(svc::proto::from_hex(hex, &back));
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(svc::proto::from_hex("abc", &back));   // odd length
  EXPECT_FALSE(svc::proto::from_hex("zz", &back));    // non-hex
}

TEST(Protocol, SpecAndResultTravelBitExactly) {
  sim::RunSpec spec = quick_spec(4);
  spec.context_fraction = 0.123456789012345;
  sim::RunSpec spec_back;
  ASSERT_TRUE(
      svc::proto::decode_spec_hex(svc::proto::encode_spec_hex(spec),
                                  &spec_back));
  EXPECT_EQ(ckpt::spec_hash(spec_back), ckpt::spec_hash(spec));
  EXPECT_EQ(spec_back.context_fraction, spec.context_fraction);

  const sim::RunResult r = synthetic_result();
  sim::RunResult r_back;
  ASSERT_TRUE(svc::proto::decode_result_hex(
      svc::proto::encode_result_hex(r), &r_back));
  EXPECT_EQ(r_back.ipc, r.ipc);
  EXPECT_EQ(r_back.cpi_stack, r.cpi_stack);

  sim::RunSpec junk;
  EXPECT_FALSE(svc::proto::decode_spec_hex("deadbeef", &junk));
}

TEST(Socket, LineTransportRoundTrip) {
  const std::string path = ::testing::TempDir() + "svc_sock_test.sock";
  svc::UnixListener listener(path);
  std::thread server([&listener] {
    svc::UnixConn conn = listener.accept();
    ASSERT_TRUE(conn.valid());
    std::string line;
    while (conn.read_line(&line)) {
      conn.write_line("echo:" + line + "\n");
    }
  });
  svc::UnixConn client = svc::unix_connect(path);
  ASSERT_TRUE(client.valid());
  // Two lines in one write must come back as two reads (buffering).
  ASSERT_TRUE(client.write_line("one\ntwo\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "echo:one");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "echo:two");
  client.close();
  server.join();
  listener.shutdown();
  EXPECT_FALSE(svc::unix_connect(path).valid());
}

TEST(Socket, PeerClosedDetectsDisconnect) {
  const std::string path = ::testing::TempDir() + "svc_peerclosed.sock";
  svc::UnixListener listener(path);
  svc::UnixConn client;
  std::thread dial([&] { client = svc::unix_connect(path); });
  svc::UnixConn server = listener.accept();
  dial.join();
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(client.valid());
  EXPECT_FALSE(server.peer_closed());
  // Pipelined bytes waiting count as alive, and peeking consumes
  // nothing — the line is still readable afterwards.
  ASSERT_TRUE(client.write_line("still here\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(server.peer_closed());
  std::string line;
  ASSERT_TRUE(server.read_line(&line));
  EXPECT_EQ(line, "still here");
  client.close();
  bool closed = false;
  for (int i = 0; i < 5000 && !(closed = server.peer_closed()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
  listener.shutdown();
}

TEST(JsonParse, ParsesDocumentsAndRejectsMalformed) {
  const JsonValue doc = json_parse(
      "{\"type\":\"done\",\"id\":18446744073709551615,"
      "\"list\":[1,2.5,true,null,\"x\"],\"nested\":{\"k\":-3}}");
  EXPECT_EQ(doc.at("type").string, "done");
  // 2^64-1 survives exactly via the raw token (a double would round).
  EXPECT_EQ(doc.at("id").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at("list").array.size(), 5u);
  EXPECT_EQ(doc.at("list").array[1].number, 2.5);
  EXPECT_EQ(doc.at("nested").at("k").as_i64(), -3);
  EXPECT_EQ(doc.find("absent"), nullptr);

  EXPECT_THROW(json_parse("{\"a\":1,\"a\":2}"), JsonParseError);  // dup key
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\":}"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\":1"), JsonParseError);  // unterminated
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\": 1,}"), JsonParseError);  // trailing comma
  EXPECT_THROW(json_parse("[1, 2] trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\": 1 \"b\": 2}"), JsonParseError);  // no comma
  EXPECT_THROW(doc.at("absent"), JsonParseError);
  EXPECT_THROW(doc.at("type").as_u64(), JsonParseError);  // not a number
}

}  // namespace
}  // namespace virec
