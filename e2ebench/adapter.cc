#include "adapter.h"

#include <filesystem>
#include <unordered_set>
#include <utility>

#include "core/aligner.h"
#include "core/delta.h"
#include "parser/ntriples_parser.h"
#include "rdf/merge.h"
#include "service/json.h"
#include "service/snapshot_cache.h"
#include "service/verbs.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "stream/stream_aligner.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace e2ebench {

using namespace rdfalign;
using service::AcquiredGraph;
using service::CommonOptions;

std::unique_ptr<service::SnapshotCache> NewCache(
    unsigned long long cache_bytes) {
  if (cache_bytes == 0) return nullptr;
  return std::make_unique<service::SnapshotCache>(
      service::SnapshotCacheOptions{.capacity_bytes = cache_bytes});
}

namespace {

/// service::LoadGraphFile for a snapshot path, one store call per span.
Result<AcquiredGraph> LoadFresh(const std::string& path,
                                const CommonOptions& common,
                                bool need_fingerprint) {
  auto loaded = std::make_shared<service::LoadedGraph>();
  loaded->kind = common.use_mmap ? "snapshot(mmap)" : "snapshot";
  {
    Span span("store.snapshot_load");
    store::SnapshotLoadOptions options;
    options.use_mmap = common.use_mmap;
    options.verify_checksums = common.verify_checksums;
    RDFALIGN_ASSIGN_OR_RETURN(loaded->graph,
                              store::LoadSnapshot(path, nullptr, options));
  }
  {
    Span span("service.account");
    loaded->resident_bytes = service::LoadedGraphBytes(loaded->graph);
  }
  if (need_fingerprint) {
    Span span("store.fingerprint");
    loaded->fingerprint = store::GraphFingerprint(loaded->graph);
    loaded->has_fingerprint = true;
  }
  AcquiredGraph out;
  out.loaded = std::move(loaded);
  return out;
}

Result<AcquiredGraph> Acquire(service::SnapshotCache* cache,
                              const std::string& path,
                              const CommonOptions& common,
                              bool need_fingerprint) {
  if (cache == nullptr) return LoadFresh(path, common, need_fingerprint);
  Span span("service.acquire_hit");
  Result<AcquiredGraph> g = cache->Acquire(path, common, need_fingerprint);
  if (g.ok() && !g->cache_hit) span.Rename("store.snapshot_load");
  Tracer::Get().Count("service.cache_hit", g.ok() && g->cache_hit ? 1 : 0);
  return g;
}

TripleGraph Rebind(const AcquiredGraph& g,
                   const std::shared_ptr<Dictionary>& dict) {
  Span span("service.rebind");
  return service::RebindGraph(g.loaded, dict);
}

AlignerOptions MakeAlignerOptions(AlignMethod method,
                                  const CommonOptions& common) {
  AlignerOptions options;
  options.method = method;
  options.refinement.threads = common.threads;
  options.overlap.propagate.refinement = options.refinement;
  return options;
}

size_t CountClasses(const Partition& p) {
  std::unordered_set<ColorId> colors(p.colors().begin(), p.colors().end());
  return colors.size();
}

/// Records the phases an align reports about itself as children of the
/// span around the call, and the refinement counters.
void RecordAlignment(Span* span, const AlignmentOutcome& o) {
  if (o.phases.merge_ms > 0) span->AddReported("rdf.merge", o.phases.merge_ms);
  span->AddReported("core.refine", o.phases.refine_ms);
  span->AddReported("core.enrich", o.phases.enrich_ms);
  span->AddReported("core.overlap_index", o.phases.overlap_index_ms);
  span->AddReported("core.match", o.phases.match_ms);
  span->AddReported("core.stats", o.phases.stats_ms);
  Tracer& t = Tracer::Get();
  t.Count("core.refine_rounds", static_cast<double>(o.refinement.iterations));
  t.Count("core.resignings", static_cast<double>(o.refinement.TotalDirty()));
  t.Count("core.classes", static_cast<double>(CountClasses(o.partition)));
  t.Count("core.final_classes",
          static_cast<double>(o.refinement.final_classes));
}

void CountWritten(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  Tracer::Get().Count("store.bytes_written", ec ? 0 : double(size));
}

template <typename Response>
std::string Render(const Response& resp, bool json,
                   std::string (*to_json)(const Response&),
                   std::string (*to_text)(const Response&)) {
  Span span("service.render");
  return json ? to_json(resp) : to_text(resp);
}

ReplayResult Fail(const char* verb, const Status& st) {
  return {false, "", std::string("rdfalign ") + verb + ": " + st.ToString()};
}

ReplayResult Ok(std::string body) { return {true, std::move(body), ""}; }

ReplayResult Build(const service::Args& args) {
  service::BuildRequest req;
  if (!service::ParseBuildRequest(args, &req, nullptr)) {
    return {false, "", "rdfalign build: bad request"};
  }
  service::BuildResponse resp;
  resp.output = req.output;
  resp.threads = ResolveThreads(req.common.threads);
  WallTimer parse_timer;
  Result<TripleGraph> graph = Status::Internal("unreachable");
  {
    Span span("parser.parse");
    graph = ParseNTriplesFile(req.input, nullptr, nullptr, resp.threads);
  }
  if (!graph.ok()) return Fail("build", graph.status());
  resp.parse_ms = parse_timer.ElapsedMillis();
  resp.nodes = graph->NumNodes();
  resp.triples = graph->NumEdges();
  Tracer::Get().Count("parser.triples", static_cast<double>(resp.triples));

  WallTimer write_timer;
  {
    Span span("store.snapshot_write");
    Status st = store::WriteSnapshot(
        *graph, req.output, {.compress_dict = req.common.compress_dict});
    if (!st.ok()) return Fail("build", st);
  }
  resp.write_ms = write_timer.ElapsedMillis();
  CountWritten(req.output);
  return Ok(Render(resp, req.common.json, service::BuildToJson,
                   service::BuildToText));
}

ReplayResult Info(const service::Args& args, service::SnapshotCache* cache) {
  service::InfoRequest req;
  if (!service::ParseInfoRequest(args, &req, nullptr)) {
    return {false, "", "rdfalign info: bad request"};
  }
  service::InfoResponse resp;
  resp.path = req.path;
  resp.kind = "snapshot";
  {
    Span span("store.sniff");
    if (store::LooksLikeDelta(req.path) || store::LooksLikeArchive(req.path) ||
        store::LooksLikeUpdateFile(req.path)) {
      return {false, "", "the replay drives info on snapshots only"};
    }
  }
  {
    Span span("store.read_info");
    Result<store::SnapshotInfo> info = store::ReadSnapshotInfo(req.path);
    if (!info.ok()) return Fail("info", info.status());
    resp.snapshot = *info;
  }
  if (req.with_fingerprint) {
    Result<AcquiredGraph> g = Acquire(cache, req.path, req.common, true);
    if (!g.ok()) return Fail("info", g.status());
    resp.fingerprint = g->loaded->fingerprint;
    resp.has_fingerprint = true;
  }
  return Ok(Render(resp, req.common.json, service::InfoToJson,
                   service::InfoToText));
}

ReplayResult Align(const service::Args& args, service::SnapshotCache* cache) {
  service::AlignRequest req;
  if (!service::ParseAlignRequest(args, &req, nullptr)) {
    return {false, "", "rdfalign align: bad request"};
  }
  service::AlignResponse resp;
  resp.method = req.method;
  resp.threads = ResolveThreads(req.common.threads);
  resp.path_a = req.path_a;
  resp.path_b = req.path_b;

  auto dict = std::make_shared<Dictionary>();
  WallTimer load_a_timer;
  Result<AcquiredGraph> a = Acquire(cache, req.path_a, req.common, false);
  if (!a.ok()) return Fail("align", a.status());
  TripleGraph ga = Rebind(*a, dict);
  resp.load_a_ms = load_a_timer.ElapsedMillis();
  resp.kind_a = a->loaded->kind;
  resp.nodes_a = ga.NumNodes();
  resp.triples_a = ga.NumEdges();

  WallTimer load_b_timer;
  Result<AcquiredGraph> b = Acquire(cache, req.path_b, req.common, false);
  if (!b.ok()) return Fail("align", b.status());
  TripleGraph gb = Rebind(*b, dict);
  resp.load_b_ms = load_b_timer.ElapsedMillis();
  resp.kind_b = b->loaded->kind;
  resp.nodes_b = gb.NumNodes();
  resp.triples_b = gb.NumEdges();
  Tracer::Get().Count("rdf.merged_triples",
                      static_cast<double>(ga.NumEdges() + gb.NumEdges()));

  {
    Span span("core.align");
    Aligner aligner(MakeAlignerOptions(req.method, req.common));
    Result<AlignmentOutcome> o = aligner.Align(ga, gb);
    if (!o.ok()) return Fail("align", o.status());
    RecordAlignment(&span, *o);
    resp.seconds = o->seconds;
    resp.phases = o->phases;
    resp.edge_stats = o->edge_stats;
    resp.node_stats = o->node_stats;
    resp.refinement = o->refinement;
  }
  return Ok(Render(resp, req.common.json, service::AlignToJson,
                   service::AlignToText));
}

ReplayResult Diff(const service::Args& args, service::SnapshotCache* cache) {
  service::DiffRequest req;
  if (!service::ParseDiffRequest(args, &req, nullptr)) {
    return {false, "", "rdfalign diff: bad request"};
  }
  service::DiffResponse resp;
  const size_t workers = ResolveThreads(req.common.threads);
  resp.method = req.method;
  resp.threads = workers;
  resp.path_base = req.path_base;
  resp.path_next = req.path_next;
  resp.path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  Result<AcquiredGraph> base = Acquire(cache, req.path_base, req.common, false);
  if (!base.ok()) return Fail("diff", base.status());
  TripleGraph gbase = Rebind(*base, dict);
  resp.kind_base = base->loaded->kind;
  resp.nodes_base = gbase.NumNodes();
  resp.triples_base = gbase.NumEdges();

  Result<AcquiredGraph> next = Acquire(cache, req.path_next, req.common, false);
  if (!next.ok()) return Fail("diff", next.status());
  TripleGraph gnext = Rebind(*next, dict);
  resp.kind_next = next->loaded->kind;
  resp.nodes_next = gnext.NumNodes();
  resp.triples_next = gnext.NumEdges();

  WallTimer align_timer;
  Result<CombinedGraph> cg = Status::Internal("unreachable");
  {
    Span span("rdf.merge");
    cg = CombinedGraph::Build(gbase, gnext, workers);
  }
  if (!cg.ok()) return Fail("diff", cg.status());
  Tracer::Get().Count("rdf.merged_triples",
                      static_cast<double>(cg->graph().NumEdges()));
  AlignmentOutcome outcome;
  {
    Span span("core.align");
    Aligner aligner(MakeAlignerOptions(req.method, req.common));
    outcome = aligner.AlignCombined(*cg);
    RecordAlignment(&span, outcome);
  }
  VersionNodeMap map;
  {
    Span span("core.nodemap");
    map = NodeMapFromPartition(*cg, outcome.partition);
  }
  resp.align_ms = align_timer.ElapsedMillis();

  WallTimer write_timer;
  {
    Span span("store.delta_write");
    Status st = store::WriteDelta(gbase, gnext, map, req.path_out, &resp.stats,
                                  {.compress_dict = req.common.compress_dict});
    if (!st.ok()) return Fail("diff", st);
  }
  resp.write_ms = write_timer.ElapsedMillis();
  Tracer::Get().Count("store.bytes_written",
                      static_cast<double>(resp.stats.file_bytes));
  return Ok(Render(resp, req.common.json, service::DiffToJson,
                   service::DiffToText));
}

ReplayResult Patch(const service::Args& args, service::SnapshotCache* cache) {
  service::PatchRequest req;
  if (!service::ParsePatchRequest(args, &req, nullptr)) {
    return {false, "", "rdfalign patch: bad request"};
  }
  service::PatchResponse resp;
  const size_t workers = ResolveThreads(req.common.threads);
  resp.threads = workers;
  resp.path_base = req.path_base;
  resp.path_delta = req.path_delta;
  resp.path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  WallTimer load_timer;
  Result<AcquiredGraph> base = Acquire(cache, req.path_base, req.common, false);
  if (!base.ok()) return Fail("patch", base.status());
  TripleGraph gbase = Rebind(*base, dict);
  resp.load_ms = load_timer.ElapsedMillis();
  resp.kind_base = base->loaded->kind;
  resp.nodes_base = gbase.NumNodes();
  resp.triples_base = gbase.NumEdges();

  WallTimer apply_timer;
  Result<TripleGraph> next = Status::Internal("unreachable");
  {
    Span span("store.delta_apply");
    store::DeltaApplyOptions options;
    options.threads = workers;
    options.verify_checksums = req.common.verify_checksums;
    next = store::ApplyDelta(gbase, req.path_delta, dict, options,
                             &resp.stats);
  }
  if (!next.ok()) return Fail("patch", next.status());
  resp.apply_ms = apply_timer.ElapsedMillis();
  resp.nodes = next->NumNodes();
  resp.triples = next->NumEdges();

  WallTimer write_timer;
  {
    Span span("store.snapshot_write");
    Status st = store::WriteSnapshot(
        *next, req.path_out, {.compress_dict = req.common.compress_dict});
    if (!st.ok()) return Fail("patch", st);
  }
  resp.write_ms = write_timer.ElapsedMillis();
  CountWritten(req.path_out);
  return Ok(Render(resp, req.common.json, service::PatchToJson,
                   service::PatchToText));
}

}  // namespace

ReplayResult ReplayVerb(const std::vector<std::string>& tokens,
                        service::SnapshotCache* cache) {
  if (tokens.empty()) return {false, "", "empty command"};
  const service::Args args(
      std::vector<std::string>(tokens.begin() + 1, tokens.end()));
  const std::string& verb = tokens[0];
  if (verb == "build") return Build(args);
  if (verb == "info") return Info(args, cache);
  if (verb == "align") return Align(args, cache);
  if (verb == "diff") return Diff(args, cache);
  if (verb == "patch") return Patch(args, cache);
  return {false, "", "the replay does not drive verb '" + verb + "'"};
}

// ---------------------------------------------------------------- stream

struct StreamReplay::Impl {
  service::SnapshotCache* cache = nullptr;
  std::string source_path;
  CommonOptions common;
  std::unique_ptr<stream::StreamAligner> aligner;
};

StreamReplay::StreamReplay(service::SnapshotCache* cache)
    : impl_(std::make_unique<Impl>()) {
  impl_->cache = cache;
}

StreamReplay::~StreamReplay() = default;

namespace {

/// Acquires both graphs of a stream request into one label space.
Status AcquirePair(service::SnapshotCache* cache,
                   const std::string& first, const std::string& second,
                   const CommonOptions& common, TripleGraph* g1,
                   TripleGraph* g2) {
  auto dict = std::make_shared<Dictionary>();
  RDFALIGN_ASSIGN_OR_RETURN(AcquiredGraph a,
                            Acquire(cache, first, common, false));
  *g1 = Rebind(a, dict);
  RDFALIGN_ASSIGN_OR_RETURN(AcquiredGraph b,
                            Acquire(cache, second, common, false));
  *g2 = Rebind(b, dict);
  return Status::OK();
}

void AppendPairs(service::JsonBuf* b, const char* key,
                 const std::vector<stream::LabeledPair>& pairs) {
  b->Appendf("  \"%s\": [\n", key);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const stream::LabeledPair& p = pairs[i];
    b->Appendf(
        "    {\"src\": \"%s\", \"src_kind\": \"%s\", \"tgt\": \"%s\", "
        "\"tgt_kind\": \"%s\"}%s\n",
        service::JsonEscape(p.src_lex).c_str(),
        std::string(TermKindToString(p.src_kind)).c_str(),
        service::JsonEscape(p.tgt_lex).c_str(),
        std::string(TermKindToString(p.tgt_kind)).c_str(),
        i + 1 < pairs.size() ? "," : "");
  }
  b->Appendf("  ],\n");
}

}  // namespace

ReplayResult StreamReplay::Open(const std::vector<std::string>& tokens) {
  const service::Args args(
      std::vector<std::string>(tokens.begin() + 2, tokens.end()));
  if (args.positional().size() != 2) return {false, "", "open: bad request"};
  std::string message;
  if (!service::ParseCommonFlags(args, "stream", &impl_->common, &message)) {
    return {false, "", message};
  }
  impl_->source_path = args.positional()[0];
  stream::StreamOptions options;
  options.method = args.GetString("method", "deblank") == "trivial"
                       ? AlignMethod::kTrivial
                       : AlignMethod::kDeblank;
  options.threads = impl_->common.threads;
  TripleGraph src, tgt;
  Status st = AcquirePair(impl_->cache, args.positional()[0],
                          args.positional()[1], impl_->common, &src, &tgt);
  if (!st.ok()) return Fail("stream", st);
  Span span("stream.open");
  Result<std::unique_ptr<stream::StreamAligner>> aligner =
      stream::StreamAligner::Open(src, tgt, options);
  if (!aligner.ok()) return Fail("stream", aligner.status());
  impl_->aligner = std::move(*aligner);
  return Ok("");
}

ReplayResult StreamReplay::Push(const std::string& fragment) {
  if (impl_->aligner == nullptr) return {false, "", "no open session"};
  Result<store::UpdateBatch> batch = Status::Internal("unreachable");
  {
    Span span("store.fragment_decode");
    batch = store::DecodeUpdateBatch(fragment, "stream push");
  }
  if (!batch.ok()) return Fail("stream", batch.status());
  Result<stream::StreamBatchResult> r = Status::Internal("unreachable");
  {
    Span span("stream.push");
    r = impl_->aligner->Apply(*batch);
    if (r.ok()) {
      span.AddReported("stream.overlay", r->apply_ms);
      span.AddReported("stream.refine", r->refine_ms);
      span.AddReported("stream.delta", r->delta_ms);
    }
  }
  if (!r.ok()) return Fail("stream", r.status());
  Tracer& t = Tracer::Get();
  t.Count("stream.updates",
          static_cast<double>(r->applied_adds + r->applied_removes));
  t.Count("stream.resignings", static_cast<double>(r->dirty_total));

  Span span("service.render");
  service::JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"push\",\n");
  b.Appendf("  \"sequence\": %llu,\n", (unsigned long long)r->sequence);
  b.Appendf("  \"applied_adds\": %zu,\n", r->applied_adds);
  b.Appendf("  \"ignored_adds\": %zu,\n", r->ignored_adds);
  b.Appendf("  \"applied_removes\": %zu,\n", r->applied_removes);
  b.Appendf("  \"ignored_removes\": %zu,\n", r->ignored_removes);
  b.Appendf("  \"new_nodes\": %zu,\n", r->new_nodes);
  b.Appendf("  \"removed_nodes\": %zu,\n", r->removed_nodes);
  b.Appendf("  \"refined\": %s,\n", r->refined ? "true" : "false");
  b.Appendf("  \"iterations\": %zu,\n", r->iterations);
  b.Appendf("  \"dirty_total\": %zu,\n", r->dirty_total);
  AppendPairs(&b, "removed_pairs", r->removed_pairs);
  AppendPairs(&b, "added_pairs", r->added_pairs);
  b.Appendf("  \"apply_ms\": %.3f,\n", r->apply_ms);
  b.Appendf("  \"refine_ms\": %.3f,\n", r->refine_ms);
  b.Appendf("  \"delta_ms\": %.3f\n", r->delta_ms);
  b.Appendf("}\n");
  return Ok(b.Take());
}

ReplayResult StreamReplay::Check(const std::vector<std::string>& tokens) {
  if (impl_->aligner == nullptr || tokens.size() < 3) {
    return {false, "", "check: no open session"};
  }
  TripleGraph src, fin;
  Status st = AcquirePair(impl_->cache, impl_->source_path, tokens[2],
                          impl_->common, &src, &fin);
  if (!st.ok()) return Fail("stream", st);
  Span span("stream.check");
  Result<stream::StreamCheckResult> check =
      impl_->aligner->CheckBatchEquivalence(src, fin);
  if (!check.ok()) return Fail("stream", check.status());
  service::JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"check\",\n");
  b.Appendf("  \"equivalent\": true,\n");
  b.Appendf("  \"live_nodes\": %zu,\n", check->live_nodes);
  b.Appendf("  \"classes\": %zu\n", check->classes);
  b.Appendf("}\n");
  return Ok(b.Take());
}

}  // namespace e2ebench
