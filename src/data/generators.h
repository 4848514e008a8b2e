// Synthetic dataset generators for the Table 1 inputs.
//
// The paper benchmarks over XMark documents (depth 13), TreeBank (86 MB,
// depth 37), Medline (174 MB, depth 8) and Protein Sequence DB (684 MB,
// depth 8), with attributes encoded as elements. Those corpora are not
// redistributable here, so deterministic generators reproduce their
// *structural* profiles — the properties the queries and the engines react
// to: element vocabulary (XMark's site/people/person/open_auction/... tree,
// including the deep Q16 annotation chain), nesting depth, optional-element
// probabilities (homepage for Q17, keyword for Q16, person0 hits for Q1),
// and record-vs-recursive shape. Sizes are a target in bytes; generation is
// a single sequential write.
#ifndef XQMFT_DATA_GENERATORS_H_
#define XQMFT_DATA_GENERATORS_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/status.h"

namespace xqmft {

enum class DatasetKind {
  kXmark,     ///< auction site; depth ~13
  kTreebank,  ///< deep parse trees; depth ~37
  kMedline,   ///< bibliographic records; depth ~8
  kProtein,   ///< protein sequence records; depth ~8
};

const char* DatasetName(DatasetKind kind);

/// Generates a dataset of roughly `target_bytes` into `out` (buffered).
/// Deterministic in (kind, target_bytes, seed).
Status GenerateDataset(DatasetKind kind, std::size_t target_bytes,
                       std::uint64_t seed, std::FILE* out);

/// Generates into a string (tests and small benches).
Result<std::string> GenerateDatasetString(DatasetKind kind,
                                          std::size_t target_bytes,
                                          std::uint64_t seed);

/// Structural statistics of an XML file (the Table 1 columns).
struct DatasetStats {
  std::size_t bytes = 0;
  std::size_t elements = 0;
  std::size_t texts = 0;
  std::size_t depth = 0;
};

Result<DatasetStats> ScanDatasetFile(const std::string& path);

/// Returns the path of a cached generated dataset, generating it on first
/// use. Files live in `XQMFT_DATA_DIR` (default /tmp/xqmft_data). A file is
/// written under a temporary name and renamed into place, so the returned
/// path always holds a complete document.
Result<std::string> EnsureDataset(DatasetKind kind, std::size_t target_bytes,
                                  std::uint64_t seed = 7);

}  // namespace xqmft

#endif  // XQMFT_DATA_GENERATORS_H_
