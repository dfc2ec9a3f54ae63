// Input generation for the benchmark's workloads. The program under test
// only ever sees the files written here.
//
//   category <scale>  two versions of the DBpedia-category chain
//                     (CategoryOptions::FromScale), as N-Triples;
//   gtopdb <ligands>  two versions of the GtoPdb relational chain exported
//                     by the Direct Mapping with a different URI prefix per
//                     version, as N-Triples;
//   efo <classes>     four versions of the EFO-shaped chain as N-Triples,
//                     plus the RDFUPDT1 fragments between neighbouring
//                     versions 1..3 in both directions (fwd<i>.rdfu turns
//                     version i into i+1, bwd<i>.rdfu turns i+1 into i).
//
// Fragments are built from the versions as re-parsed from their N-Triples
// files, so node labels are exactly what a daemon loading those files
// sees. They carry sequence 0 (no producer numbering), so one pre-encoded
// cycle can be pushed again and again.
//
// inputs.json lists every file with its node and triple (or update) counts.

#include "inputs.h"

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "gen/gtopdb_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "store/update_fragment.h"

namespace e2ebench {

using namespace rdfalign;

namespace {

/// "<stem><i><ext>", e.g. "v1.nt".
std::string FileName(const char* stem, size_t i, const char* ext) {
  std::string name = stem;
  name += std::to_string(i);
  name += ext;
  return name;
}

struct FileEntry {
  std::string file;
  size_t nodes = 0;
  size_t triples = 0;
  size_t updates = 0;  ///< fragments: triple adds + removes
};

Status WriteVersion(const TripleGraph& g, const std::string& dir,
                    const std::string& name, std::vector<FileEntry>* files) {
  RDFALIGN_RETURN_IF_ERROR(WriteNTriplesFile(g, dir + "/" + name));
  files->push_back({name, g.NumNodes(), g.NumEdges(), 0});
  return Status::OK();
}

Status WriteFragment(const TripleGraph& from, const TripleGraph& to,
                     const std::string& dir, const std::string& name,
                     std::vector<FileEntry>* files) {
  RDFALIGN_ASSIGN_OR_RETURN(store::UpdateBatch batch,
                            store::BuildUpdateBatch(from, to, 0));
  RDFALIGN_RETURN_IF_ERROR(store::WriteUpdateFile(batch, dir + "/" + name));
  files->push_back({name, 0, 0, batch.added.size() + batch.removed.size()});
  return Status::OK();
}

Status WriteManifest(const std::string& dir,
                     const std::vector<FileEntry>& files) {
  std::ofstream out(dir + "/inputs.json");
  out << "{\"files\": [\n";
  for (size_t i = 0; i < files.size(); ++i) {
    const FileEntry& f = files[i];
    out << "  {\"file\": \"" << f.file << "\", \"nodes\": " << f.nodes
        << ", \"triples\": " << f.triples << ", \"updates\": " << f.updates
        << "}" << (i + 1 < files.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + dir + "/inputs.json");
  return Status::OK();
}

Status GenerateCategory(double scale, uint64_t seed, const std::string& dir,
                        std::vector<FileEntry>* files) {
  const gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale, 2, seed));
  for (size_t v = 0; v < chain.NumVersions(); ++v) {
    RDFALIGN_RETURN_IF_ERROR(WriteVersion(chain.Version(v), dir,
                                          FileName("v", v + 1, ".nt"), files));
  }
  return Status::OK();
}

Status GenerateGtoPdb(size_t ligands, uint64_t seed, const std::string& dir,
                      std::vector<FileEntry>* files) {
  gen::GtoPdbOptions options;
  options.num_ligands = ligands;
  options.versions = 2;
  options.seed = seed;
  const gen::GtoPdbChain chain = gen::GenerateGtoPdbChain(options);
  for (size_t v = 0; v < chain.versions.size(); ++v) {
    RDFALIGN_ASSIGN_OR_RETURN(
        TripleGraph g, gen::ExportGtoPdbVersion(
                           chain.versions[v], v,
                           std::make_shared<Dictionary>()));
    RDFALIGN_RETURN_IF_ERROR(
        WriteVersion(g, dir, FileName("v", v + 1, ".nt"), files));
  }
  return Status::OK();
}

Status GenerateEfo(size_t classes, uint64_t seed, const std::string& dir,
                   std::vector<FileEntry>* files) {
  constexpr size_t kVersions = 4;
  gen::EfoOptions options;
  options.initial_classes = classes;
  options.versions = kVersions;
  options.seed = seed;
  const gen::EfoChain chain = gen::EfoChain::Generate(options);
  std::vector<TripleGraph> parsed;
  for (size_t v = 0; v < chain.NumVersions(); ++v) {
    const std::string name = FileName("v", v, ".nt");
    RDFALIGN_RETURN_IF_ERROR(WriteVersion(chain.Version(v), dir, name, files));
    RDFALIGN_ASSIGN_OR_RETURN(TripleGraph g,
                              ParseNTriplesFile(dir + "/" + name, nullptr));
    parsed.push_back(std::move(g));
  }
  for (size_t v = 1; v + 1 < parsed.size(); ++v) {
    RDFALIGN_RETURN_IF_ERROR(WriteFragment(parsed[v], parsed[v + 1], dir,
                                           FileName("fwd", v, ".rdfu"), files));
    RDFALIGN_RETURN_IF_ERROR(WriteFragment(parsed[v + 1], parsed[v], dir,
                                           FileName("bwd", v, ".rdfu"), files));
  }
  return Status::OK();
}

}  // namespace

Status GenerateInputs(const std::string& kind, double size, uint64_t seed,
                      const std::string& dir) {
  std::vector<FileEntry> files;
  if (kind == "category") {
    RDFALIGN_RETURN_IF_ERROR(GenerateCategory(size, seed, dir, &files));
  } else if (kind == "gtopdb") {
    RDFALIGN_RETURN_IF_ERROR(
        GenerateGtoPdb(static_cast<size_t>(size), seed, dir, &files));
  } else if (kind == "efo") {
    RDFALIGN_RETURN_IF_ERROR(
        GenerateEfo(static_cast<size_t>(size), seed, dir, &files));
  } else {
    return Status::InvalidArgument("unknown input kind: " + kind);
  }
  return WriteManifest(dir, files);
}

}  // namespace e2ebench
