// Per-tenant cost attribution: concurrent tenants hammer the server with
// ingests and queries while the ledger charges every path; at the end the
// per-tenant block-I/O sums must cover (>= 99% of) the device counters,
// and snapshots taken mid-flight must be TSan-clean. The unit tests below
// pin the ledger's charge arithmetic and the GetTenantUsage envelopes.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/cost_ledger.h"
#include "server/server.h"

namespace aims {
namespace {

using server::AimsServer;
using server::QueryOutcome;
using server::QueryRequest;
using server::QueryState;
using server::ServerConfig;

streams::Recording MakeRecording(size_t frames, size_t channels) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < frames; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    frame.values.resize(channels);
    for (size_t c = 0; c < channels; ++c) {
      frame.values[c] = std::sin(0.1 * static_cast<double>(f * (c + 1)));
    }
    rec.Append(std::move(frame));
  }
  return rec;
}

TEST(CostLedgerTest, ChargesAccumulateAndSnapshotIsOrdered) {
  obs::CostLedger ledger;
  obs::TenantLedger* a = ledger.ForTenant(7);
  obs::TenantLedger* b = ledger.ForTenant(3);
  EXPECT_EQ(a, ledger.ForTenant(7)) << "ForTenant is stable per tenant";

  a->ChargeCpuNs(1000);
  a->ChargeRead(4, 4 * 512);
  a->ChargeWrite(2, 2 * 512);
  a->ChargeQueueMs(1.5);
  a->CountQuery();
  a->CountIngest();
  b->ChargeCpuNs(500);
  b->CountRejected();

  auto usage_a = ledger.Usage(7);
  ASSERT_TRUE(usage_a.has_value());
  EXPECT_EQ(usage_a->cpu_ns, 1000u);
  EXPECT_EQ(usage_a->blocks_read, 4u);
  EXPECT_EQ(usage_a->bytes_read, 4u * 512u);
  EXPECT_EQ(usage_a->blocks_written, 2u);
  EXPECT_EQ(usage_a->bytes_written, 2u * 512u);
  EXPECT_DOUBLE_EQ(usage_a->queue_ms, 1.5);
  EXPECT_EQ(usage_a->queries, 1u);
  EXPECT_EQ(usage_a->ingests, 1u);
  EXPECT_FALSE(ledger.Usage(99).has_value());

  auto snapshot = ledger.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, 3u);  // ascending tenant order
  EXPECT_EQ(snapshot[1].first, 7u);
  EXPECT_EQ(snapshot[0].second.rejected, 1u);

  obs::TenantUsage total = ledger.Total();
  EXPECT_EQ(total.cpu_ns, 1500u);
  EXPECT_EQ(total.blocks_read, 4u);
  EXPECT_EQ(total.rejected, 1u);
}

TEST(CostLedgerTest, ScopedCpuChargeIsNullSafeAndCharges) {
  { obs::ScopedCpuCharge noop(nullptr); }  // must not crash

  obs::CostLedger ledger;
  obs::TenantLedger* tenant = ledger.ForTenant(1);
  {
    obs::ScopedCpuCharge charge(tenant);
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_GT(ledger.Usage(1)->cpu_ns, 0u);
}

// The acceptance bar: with several tenants charging concurrently, the
// ledger attributes >= 99% of all block I/O the devices actually
// performed. (It is exact by construction — writes are measured under the
// shard's exclusive lock, reads come from the progressive result — but
// the test asserts the contract, not the implementation.)
TEST(CostLedgerConcurrencyTest, AttributesBlockIoAcrossConcurrentTenants) {
  ServerConfig config;
  config.num_shards = 4;
  config.num_threads = 4;
  config.system.block_size_bytes = 64;
  AimsServer server(config);

  constexpr size_t kTenants = 4;
  constexpr size_t kRoundsPerTenant = 6;
  for (server::ClientId client = 1; client <= kTenants; ++client) {
    ASSERT_TRUE(server.OpenSession({client}).ok());
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (server::ClientId client = 1; client <= kTenants; ++client) {
    tenants.emplace_back([&, client] {
      for (size_t round = 0; round < kRoundsPerTenant; ++round) {
        auto ingest = server.IngestRecording(
            {client, "rec" + std::to_string(round), MakeRecording(128, 1)});
        if (!ingest.ok()) {
          failures.fetch_add(1);
          continue;
        }
        QueryRequest query;
        query.session = ingest->session;
        query.channel = 0;
        query.first_frame = 3;
        query.last_frame = 120;
        auto submitted = server.SubmitQuery({client, query});
        if (!submitted.ok()) {
          failures.fetch_add(1);
          continue;
        }
        QueryOutcome outcome = submitted->ticket->Wait();
        if (outcome.state != QueryState::kComplete) failures.fetch_add(1);
        // Concurrent snapshots must be safe against in-flight charges.
        server.cost_ledger().Snapshot();
      }
    });
  }
  for (std::thread& t : tenants) t.join();
  ASSERT_EQ(failures.load(), 0u);
  server.Shutdown();

  auto usage = server.GetTenantUsage({std::nullopt});
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ(usage->tenants.size(), kTenants);

  const size_t device_reads = server.catalog().total_blocks_read();
  const size_t device_writes = server.catalog().total_blocks_written();
  ASSERT_GT(device_reads, 0u);
  ASSERT_GT(device_writes, 0u);
  EXPECT_GE(static_cast<double>(usage->total.blocks_read),
            0.99 * static_cast<double>(device_reads));
  EXPECT_LE(usage->total.blocks_read, device_reads);
  EXPECT_GE(static_cast<double>(usage->total.blocks_written),
            0.99 * static_cast<double>(device_writes));
  EXPECT_LE(usage->total.blocks_written, device_writes);

  // Every tenant ran the same workload on its own sessions: each one must
  // carry its own share of the charges.
  for (const auto& entry : usage->tenants) {
    EXPECT_GT(entry.usage.blocks_read, 0u) << "tenant " << entry.client;
    EXPECT_GT(entry.usage.blocks_written, 0u) << "tenant " << entry.client;
    EXPECT_EQ(entry.usage.queries, kRoundsPerTenant) << "tenant " << entry.client;
    EXPECT_EQ(entry.usage.ingests, kRoundsPerTenant) << "tenant " << entry.client;
    EXPECT_GT(entry.usage.cpu_ns, 0u) << "tenant " << entry.client;
  }
}

// Regression: a write fault used to void the whole ingest's attribution —
// the blocks written before (and by) the failed write never reached the
// tenant's ledger, so failed ingests consumed device time for free. Both
// backends share the rule; on the durable one the fault lands in the
// write-back after the WAL commit.
void ExpectFailedIngestChargesItsWrites(const std::string& durable_path) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.system.block_size_bytes = 64;
  config.system.durability.path = durable_path;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());

  server::AdminFaultRequest fault;
  fault.fail_next_writes = 1;
  ASSERT_TRUE(server.AdminFault(fault).ok());
  auto failed = server.IngestRecording({1, "will-fail", MakeRecording(128, 1)});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

  auto usage = server.GetTenantUsage({1});
  ASSERT_TRUE(usage.ok());
  // The failed write itself was a device access (seek + charge), and it is
  // the tenant's: attribution must match the device counter exactly.
  EXPECT_GT(usage->total.blocks_written, 0u);
  EXPECT_EQ(usage->total.blocks_written,
            server.catalog().total_blocks_written());
  EXPECT_EQ(usage->total.bytes_written,
            usage->total.blocks_written * config.system.block_size_bytes);
}

TEST(CostLedgerFailureTest, FailedIngestStillChargesItsWrites) {
  ExpectFailedIngestChargesItsWrites("");
}

TEST(CostLedgerFailureTest, FailedDurableIngestStillChargesItsWrites) {
  const std::string dir = ::testing::TempDir() + "aims_cost_ledger_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ExpectFailedIngestChargesItsWrites(dir);
  std::filesystem::remove_all(dir);
}

// Regression companion on the read side: a query killed by a read fault
// must charge the fetches that did happen plus the failed read itself.
TEST(CostLedgerFailureTest, FailedQueryChargesTheFailedRead) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  config.system.block_size_bytes = 64;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({1}).ok());
  auto ingest = server.IngestRecording({1, "rec", MakeRecording(128, 1)});
  ASSERT_TRUE(ingest.ok());
  const size_t reads_before = server.catalog().total_blocks_read();

  server::AdminFaultRequest fault;
  fault.fail_next_reads = 1;
  ASSERT_TRUE(server.AdminFault(fault).ok());
  QueryRequest query;
  query.session = ingest->session;
  query.channel = 0;
  query.first_frame = 3;
  query.last_frame = 120;
  auto submitted = server.SubmitQuery({1, query});
  ASSERT_TRUE(submitted.ok());
  QueryOutcome outcome = submitted->ticket->Wait();
  EXPECT_EQ(outcome.state, QueryState::kFailed);
  EXPECT_EQ(outcome.status.code(), StatusCode::kIoError);

  auto usage = server.GetTenantUsage({1});
  ASSERT_TRUE(usage.ok());
  const size_t device_read_delta =
      server.catalog().total_blocks_read() - reads_before;
  EXPECT_GT(device_read_delta, 0u);
  EXPECT_EQ(usage->total.blocks_read, device_read_delta);
}

TEST(GetTenantUsageApiTest, SpecificClientAndErrorEnvelopes) {
  ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 2;
  AimsServer server(config);
  ASSERT_TRUE(server.OpenSession({5}).ok());
  ASSERT_TRUE(server.IngestRecording({5, "rec", MakeRecording(64, 1)}).ok());

  auto one = server.GetTenantUsage({5});
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->tenants.size(), 1u);
  EXPECT_EQ(one->tenants[0].client, 5u);
  EXPECT_EQ(one->tenants[0].usage.ingests, 1u);
  EXPECT_GT(one->total.blocks_written, 0u);

  auto missing = server.GetTenantUsage({42});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace aims
