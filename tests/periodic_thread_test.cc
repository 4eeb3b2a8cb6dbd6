// The periodic background loops: the PeriodicThread primitive itself
// (first tick one interval after Start, non-positive intervals, heartbeat
// arming, Stop's return value) and the Start/Stop races that every
// component running on it must survive — a Start issued while a Stop is
// joining, and two concurrent Stops. The race tests bound every wait, so a
// lifecycle that hangs fails here instead of stalling the suite.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/periodic_thread.h"
#include "obs/stats_reporter.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "server/retention_sweeper.h"
#include "server/sharded_catalog.h"

namespace aims::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Longest a Start or Stop may block before the test calls it a hang.
constexpr auto kHangLimit = std::chrono::seconds(5);

/// Polls \p done every millisecond for up to kHangLimit.
bool WaitFor(const std::function<bool()>& done) {
  const Clock::time_point deadline = Clock::now() + kHangLimit;
  while (!done()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A call on its own thread, waited for with a deadline. A call still
/// blocked at the deadline is detached, so a hang fails the test instead
/// of stalling the suite; the caller must then leak what the call uses.
class BoundedCall {
 public:
  explicit BoundedCall(std::function<void()> call) {
    std::packaged_task<void()> task(std::move(call));
    done_ = task.get_future();
    thread_ = std::thread(std::move(task));
  }
  ~BoundedCall() {
    if (thread_.joinable()) thread_.join();
  }

  BoundedCall(const BoundedCall&) = delete;
  BoundedCall& operator=(const BoundedCall&) = delete;

  /// True when the call returned within \p limit without throwing.
  bool Finished(std::chrono::seconds limit = kHangLimit) {
    if (done_.wait_for(limit) != std::future_status::ready) {
      thread_.detach();
      return false;
    }
    thread_.join();
    try {
      done_.get();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the call threw: " << e.what();
      return false;
    }
    return true;
  }

 private:
  std::future<void> done_;
  std::thread thread_;
};

TEST(PeriodicThreadTest, FirstTickComesOneIntervalAfterStart) {
  PeriodicThread loop;
  std::atomic<int> ticks{0};
  std::atomic<int64_t> first_tick_us{-1};
  const Clock::time_point start = Clock::now();
  ASSERT_TRUE(loop.Start(50.0, [&] {
    if (ticks.fetch_add(1) == 0) {
      first_tick_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now() - start)
                          .count();
    }
  }));
  EXPECT_TRUE(loop.running());
  EXPECT_TRUE(WaitFor([&] { return ticks.load() >= 2; }));
  EXPECT_GE(first_tick_us.load(), 50'000) << "no tick before one interval";
  EXPECT_TRUE(loop.Stop());
}

TEST(PeriodicThreadTest, NonPositiveIntervalStartsNothing) {
  Watchdog watchdog;
  Watchdog::Handle* heartbeat = watchdog.Register("loop");
  PeriodicThread loop;
  std::atomic<int> ticks{0};
  for (double interval_ms : {0.0, -5.0, std::nan("")}) {
    EXPECT_FALSE(loop.Start(interval_ms, [&] { ++ticks; }, heartbeat))
        << interval_ms;
    EXPECT_FALSE(loop.running());
    EXPECT_FALSE(heartbeat->armed());
  }
  EXPECT_FALSE(loop.Stop());
  EXPECT_EQ(ticks.load(), 0);
}

TEST(PeriodicThreadTest, HeartbeatIsArmedOnlyWhileRunningAndBeatsEachTick) {
  Watchdog watchdog;
  Watchdog::Handle* heartbeat = watchdog.Register("loop");
  PeriodicThread loop;
  EXPECT_FALSE(heartbeat->armed());
  // With a 100 ms interval, a beat older than half of it at tick time
  // would be the previous tick's (or Start's), not this tick's.
  std::atomic<int> ticks{0};
  std::atomic<int> fresh_beats{0};
  ASSERT_TRUE(loop.Start(
      100.0,
      [&] {
        if (heartbeat->MsSinceBeat() < 50.0) ++fresh_beats;
        ++ticks;
      },
      heartbeat));
  EXPECT_TRUE(heartbeat->armed());
  EXPECT_TRUE(WaitFor([&] { return ticks.load() >= 3; }));
  EXPECT_TRUE(heartbeat->armed());
  EXPECT_TRUE(loop.Stop());
  EXPECT_FALSE(heartbeat->armed()) << "a stopped loop is idle, not stalled";
  EXPECT_GE(fresh_beats.load(), 1);
  EXPECT_GE(fresh_beats.load(), ticks.load() - 1);
}

TEST(PeriodicThreadTest, StopReportsWhetherItStoppedALoop) {
  PeriodicThread loop;
  EXPECT_FALSE(loop.Stop()) << "nothing to stop";
  std::atomic<int> ticks{0};
  ASSERT_TRUE(loop.Start(60'000.0, [&] { ++ticks; }));
  EXPECT_FALSE(loop.Start(1.0, [&] { ++ticks; })) << "already running";
  const Clock::time_point stop_at = Clock::now();
  EXPECT_TRUE(loop.Stop());
  EXPECT_LT(Clock::now() - stop_at, kHangLimit) << "the wait is interruptible";
  EXPECT_FALSE(loop.running());
  EXPECT_FALSE(loop.Stop()) << "already stopped";
  EXPECT_EQ(ticks.load(), 0);

  // A stopped loop starts again.
  ASSERT_TRUE(loop.Start(1.0, [&] { ++ticks; }));
  EXPECT_TRUE(WaitFor([&] { return ticks.load() >= 1; }));
  EXPECT_TRUE(loop.Stop());
}

}  // namespace
}  // namespace aims::obs

// ---- Start/Stop races over every component with a Start/Stop lifecycle ----
//
// The loop types are global so that ctest lists each typed instance by its
// bare name, e.g. PeriodicLoopLifecycleTest.<test><MetricsScraperLoop>.

constexpr double kLoopIntervalMs = 1.0;

struct StatsReporterLoop {
  aims::obs::MetricsRegistry registry;
  aims::obs::StatsReporter component{&registry};
  void Start() { component.Start(kLoopIntervalMs); }
};

struct MetricsScraperLoop {
  aims::obs::MetricsRegistry registry;
  aims::obs::MetricsTimeSeries store;
  aims::obs::MetricsScraper component{
      &registry, &store,
      aims::obs::MetricsScraperConfig{/*include_process=*/false}};
  void Start() { component.Start(kLoopIntervalMs); }
};

struct WatchdogLoop {
  aims::obs::Watchdog component;
  void Start() { component.Start(kLoopIntervalMs); }
};

struct FlightRecorderLoop {
  static aims::obs::FlightRecorderConfig Config() {
    const std::string dir = ::testing::TempDir() + "aims_periodic_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    aims::obs::FlightRecorderConfig config;
    config.bundle_path = dir + "/flightrecord.json";
    config.persist_interval_ms = kLoopIntervalMs;
    return config;
  }
  aims::obs::FlightRecorder component{Config()};
  void Start() { component.Start(); }
};

struct RetentionSweeperLoop {
  static aims::server::RetentionSweeperConfig Config() {
    aims::server::RetentionSweeperConfig config;
    config.interval_ms = kLoopIntervalMs;
    return config;
  }
  aims::server::ShardedCatalog catalog{1};
  aims::server::RetentionSweeper component{&catalog, Config()};
  void Start() { component.Start(); }
};

namespace aims::obs {
namespace {

template <typename Loop>
class PeriodicLoopLifecycleTest : public ::testing::Test {
 protected:
  /// A detached call may still use the loop after a hang.
  void LeakAfterHang() { (void)loop_.release(); }

  std::unique_ptr<Loop> loop_ = std::make_unique<Loop>();
};

using Loops =
    ::testing::Types<StatsReporterLoop, MetricsScraperLoop, WatchdogLoop,
                     FlightRecorderLoop, RetentionSweeperLoop>;
TYPED_TEST_SUITE(PeriodicLoopLifecycleTest, Loops);

TYPED_TEST(PeriodicLoopLifecycleTest, StartStopCyclesNeverLeakOrHang) {
  auto& loop = *this->loop_;
  BoundedCall cycles([&loop] {
    for (int i = 0; i < 20; ++i) {
      loop.Start();
      loop.Start();  // idempotent while running
      loop.component.Stop();
      EXPECT_FALSE(loop.component.running());
    }
    // Contending starters and stoppers settle without deadlock.
    std::thread contender([&loop] {
      for (int i = 0; i < 20; ++i) {
        loop.Start();
        loop.component.Stop();
      }
    });
    for (int i = 0; i < 20; ++i) {
      loop.Start();
      loop.component.Stop();
    }
    contender.join();
    loop.component.Stop();
    EXPECT_FALSE(loop.component.running());
  });
  if (!cycles.Finished(std::chrono::seconds(30))) {
    this->LeakAfterHang();
    FAIL() << "Start/Stop cycles hung";
  }
}

TYPED_TEST(PeriodicLoopLifecycleTest, StartRacingStopWaitsForTheOldLoop) {
  // A Start issued the moment running() reads false during a Stop must
  // wait until that Stop has joined the old loop. Otherwise it clears the
  // stop request before the old loop sees it: two loops run, and the Stop
  // blocks until some later Stop.
  auto& loop = *this->loop_;
  for (int trial = 0; trial < 20; ++trial) {
    loop.Start();
    BoundedCall stop([&loop] { loop.component.Stop(); });
    const Clock::time_point deadline = Clock::now() + kHangLimit;
    while (loop.component.running() && Clock::now() < deadline) {
      std::this_thread::yield();
    }
    loop.Start();
    if (!stop.Finished()) {
      this->LeakAfterHang();
      FAIL() << "Stop() blocked behind a racing Start() in trial " << trial;
    }
    EXPECT_TRUE(loop.component.running()) << "the racing Start() took effect";
    BoundedCall restop([&loop] { loop.component.Stop(); });
    if (!restop.Finished()) {
      this->LeakAfterHang();
      FAIL() << "Stop() of the restarted loop hung in trial " << trial;
    }
    EXPECT_FALSE(loop.component.running());
  }
}

TYPED_TEST(PeriodicLoopLifecycleTest, ConcurrentStopsJoinTheLoopOnce) {
  auto& loop = *this->loop_;
  for (int round = 0; round < 20; ++round) {
    loop.Start();
    BoundedCall first([&loop] { loop.component.Stop(); });
    BoundedCall second([&loop] { loop.component.Stop(); });
    const bool first_finished = first.Finished();
    const bool second_finished = second.Finished();
    if (!first_finished || !second_finished) {
      this->LeakAfterHang();
      FAIL() << "concurrent Stop() calls failed in round " << round;
    }
    EXPECT_FALSE(loop.component.running());
  }
}

}  // namespace
}  // namespace aims::obs
