// The traced replay's one adapter into the program's modules.
//
// Every call the replay makes into src/ is in adapter.cc: each verb the
// benchmark drives (build, info, align, diff, patch, and a stream
// session's open/push/check) is re-run here as the sequence of module
// calls the verb layer makes, with a span around each call. The rendered
// body must equal what the CLI or the daemon answers for the same command
// line, so the replay measures the same program; run.py checks that.
//
// A later change to the verb layer's internals (how graphs are rebound
// into one label space, which legacy paths exist) changes this file only.

#ifndef E2EBENCH_ADAPTER_H_
#define E2EBENCH_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

namespace rdfalign::service {
class SnapshotCache;
}  // namespace rdfalign::service

namespace e2ebench {

/// The resident snapshot cache rdfalignd keeps, or nullptr when
/// `cache_bytes` is 0. Replayed verbs given a null cache load their graphs
/// fresh per call, as one `rdfalign` process does.
std::unique_ptr<rdfalign::service::SnapshotCache> NewCache(
    unsigned long long cache_bytes);

/// The outcome of one replayed command line.
struct ReplayResult {
  bool ok = false;
  std::string body;   ///< rendered output, as the CLI prints it
  std::string error;  ///< failure message when !ok
};

/// Replays one verb invocation (verb first, arguments as the CLI sees
/// them) against `cache` (nullptr: fresh loads).
ReplayResult ReplayVerb(const std::vector<std::string>& tokens,
                        rdfalign::service::SnapshotCache* cache);

/// A stream session replayed in process: `stream open` / `push` / `check`
/// as rdfalignd runs them for one connection.
class StreamReplay {
 public:
  explicit StreamReplay(rdfalign::service::SnapshotCache* cache);
  ~StreamReplay();
  StreamReplay(const StreamReplay&) = delete;
  StreamReplay& operator=(const StreamReplay&) = delete;

  /// `tokens` = {"stream", "open", source, target, flags...}.
  ReplayResult Open(const std::vector<std::string>& tokens);
  /// Applies one RDFUPDT1 fragment image. The body is the push result as
  /// JSON with the daemon's keys, timing keys included.
  ReplayResult Push(const std::string& fragment);
  /// `tokens` = {"stream", "check", final_target, flags...}.
  ReplayResult Check(const std::vector<std::string>& tokens);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_ADAPTER_H_
