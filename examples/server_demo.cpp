// Server demo: the aims::server runtime serving several tenants at once,
// spoken entirely through the typed request/response API (api.h).
//
// Where quickstart.cpp drives one AimsSystem from one thread, this example
// stands up the full multi-tenant service runtime:
//   1. an AimsServer with 2 catalog shards and a 2-thread executor,
//   2. three clients opening sessions and storing glove recordings through
//      the admission-controlled ingest pipeline,
//   3. deadline-aware progressive queries through the QueryScheduler — the
//      same query under a tight deadline returns a partial answer with a
//      guaranteed error bound, under no deadline it runs to exactness,
//   4. a live recognition stream per client via StreamSamples,
//   5. the per-request trace timeline and the MetricsRegistry dump.

#include <cstdio>
#include <vector>

#include "common/macros.h"
#include "server/server.h"
#include "synth/cyberglove.h"

using aims::server::AimsServer;
using aims::server::ClientId;
using aims::server::GlobalSessionId;
using aims::server::ServerConfig;

int main() {
  std::printf("== AIMS server demo ==\n\n");

  ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  config.admission.queue_capacity = 4;
  // Small blocks + simulated I/O waits give the progressive queries enough
  // real block reads for deadlines to bite.
  config.system.block_size_bytes = 64;
  config.system.disk_cost.seek_ms = 2.0;
  config.system.disk_cost.simulate_io_wait = true;
  AimsServer server(config);
  std::printf("server up: %zu shards, %zu worker threads\n\n",
              server.config().num_shards, server.config().num_threads);

  // Three tenants, each with their own signing session.
  aims::synth::CyberGloveSimulator glove(aims::synth::DefaultAslVocabulary(),
                                         /*seed=*/42);
  const std::vector<ClientId> clients = {101, 102, 103};
  std::vector<aims::streams::Recording> sessions;
  std::vector<aims::synth::SubjectProfile> subjects;
  for (size_t i = 0; i < clients.size(); ++i) {
    subjects.push_back(glove.MakeSubject());
    sessions.push_back(
        glove.GenerateSequence({i, i + 1, i + 2}, subjects[i], 0.8, nullptr)
            .ValueOrDie());
  }

  // The vocabulary must be registered before any recognition stream opens
  // (it is immutable while streams are running).
  for (size_t sign : {0u, 1u, 2u, 3u, 4u}) {
    aims::streams::Recording templ =
        glove.GenerateSign(sign, subjects[0]).ValueOrDie();
    aims::linalg::Matrix m(templ.num_frames(), templ.num_channels());
    for (size_t r = 0; r < templ.num_frames(); ++r) {
      m.SetRow(r, templ.frames[r].values);
    }
    AIMS_CHECK(
        server.AddVocabularyEntry(glove.vocabulary()[sign].name, std::move(m))
            .ok());
  }

  // ---------------------------------------------------------- open + ingest
  std::vector<GlobalSessionId> ids(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    auto opened = server.OpenSession({clients[i], /*enable_recognition=*/true});
    AIMS_CHECK(opened.ok());
    auto stored = server.IngestRecording({clients[i], "session", sessions[i]});
    AIMS_CHECK(stored.ok());
    ids[i] = stored->session;
    std::printf("client %llu -> session %llu (router epoch %llu, %zu frames)\n",
                static_cast<unsigned long long>(clients[i]),
                static_cast<unsigned long long>(ids[i]),
                static_cast<unsigned long long>(opened->router_epoch),
                stored->num_frames);
  }

  // ------------------------------------------------- deadline-aware queries
  // The same wrist-flexion AVERAGE, first under a 1 ms deadline (partial
  // answer, guaranteed bound), then with no deadline (exact). The range is
  // deliberately ragged: a full dyadic range would collapse to a single
  // scaling coefficient and finish in one block read.
  std::printf("\nwrist-flexion means (channel 20), progressive:\n");
  for (double deadline_ms : {1.0, 0.0}) {
    aims::server::QueryRequest query;
    query.session = ids[0];
    query.channel = 20;
    query.first_frame = 5;
    query.last_frame = sessions[0].num_frames() - 6;
    query.deadline_ms = deadline_ms;
    auto submitted = server.SubmitQuery({clients[0], query});
    AIMS_CHECK(submitted.ok());
    aims::server::QueryOutcome outcome = submitted->ticket->Wait();
    std::printf(
        "  deadline %4.1f ms -> %s: mean %.2f deg, +/- %.2f on the sum, "
        "%zu/%zu blocks\n",
        deadline_ms, aims::server::QueryStateName(outcome.state),
        outcome.answer.mean, outcome.answer.error_bound,
        outcome.answer.blocks_read, outcome.answer.blocks_needed);
  }

  // ----------------------------------------------------------- recognition
  std::printf("\nlive recognition, one stream per client:\n");
  for (size_t i = 0; i < clients.size(); ++i) {
    auto streamed = server.StreamSamples({clients[i], sessions[i].frames});
    AIMS_CHECK(streamed.ok());
    std::printf("  client %llu:",
                static_cast<unsigned long long>(clients[i]));
    for (const auto& event : streamed->events) {
      std::printf("  %s(%.2f)", event.label.c_str(), event.confidence);
    }
    // Closing flushes the tail of the stream; it may complete one last
    // motion.
    auto closed = server.CloseSession({clients[i]});
    AIMS_CHECK(closed.ok());
    if (closed->final_event.has_value()) {
      std::printf("  %s(%.2f)", closed->final_event->label.c_str(),
                  closed->final_event->confidence);
    }
    std::printf("\n");
  }

  // ---------------------------------------------------------------- wrap up
  server.Shutdown();
  std::printf("\nlast request trace:\n");
  auto traces = server.tracer().Snapshot();
  if (!traces.empty()) {
    for (const auto& span : traces.back().spans()) {
      std::printf("  %-16.*s %8.3f ms .. %8.3f ms\n",
                  static_cast<int>(span.name.size()), span.name.data(),
                  span.start_ms, span.end_ms);
    }
  }
  std::printf("\nmetrics after shutdown:\n%s",
              server.metrics().DumpText().c_str());
  return 0;
}
