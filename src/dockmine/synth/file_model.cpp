#include "dockmine/synth/file_model.h"

#include <algorithm>
#include <cmath>

#include "dockmine/compress/content_gen.h"

namespace dockmine::synth {

namespace {

using filetype::Type;

struct RawSpec {
  Type type;
  double within_group_weight;  // weight inside its level-2 group
  double mean_size;            // bytes
  double gzip_ratio;
};

// Per-type mixture, fitted to Figs. 14-22 (count/capacity shares and the
// average file sizes the paper quotes: ELF ~312 KB, intermediate ~9 KB,
// zip/gzip 67 KB, bzip2 199 KB, tar 466 KB, xz 534 KB, DB group ~978 KB).
constexpr RawSpec kRawSpecs[] = {
    // --- EOL: "Com." 64%, ELF 30%, PE 2%, rest 4% (Fig. 16) ---
    {Type::kPythonBytecode, 0.480, 9.0e3, 2.6},
    {Type::kJavaClass, 0.130, 12.0e3, 2.6},
    {Type::kTerminfo, 0.030, 2.0e3, 2.5},
    {Type::kElfSharedObject, 0.180, 300.0e3, 2.5},
    {Type::kElfExecutable, 0.075, 420.0e3, 2.5},
    {Type::kElfRelocatable, 0.045, 150.0e3, 2.6},
    {Type::kMsExecutable, 0.020, 250.0e3, 1.8},
    {Type::kStaticLibrary, 0.012, 600.0e3, 3.0},
    {Type::kDebRpmPackage, 0.005, 500.0e3, 1.03},
    {Type::kCoff, 0.002, 100.0e3, 2.2},
    {Type::kMachO, 0.0001, 200.0e3, 2.0},
    {Type::kOtherEol, 0.0209, 80.0e3, 1.8},
    // --- Source code: C/C++ 80.3%, Perl 9%, Ruby 8% (Fig. 17) ---
    {Type::kCSource, 0.803, 18.0e3, 4.2},
    {Type::kPerlModule, 0.090, 22.0e3, 4.2},
    {Type::kRubyModule, 0.080, 7.0e3, 4.2},
    {Type::kPascalSource, 0.010, 15.0e3, 4.2},
    {Type::kFortranSource, 0.008, 15.0e3, 4.2},
    {Type::kBasicSource, 0.004, 8.0e3, 4.2},
    {Type::kLispSource, 0.005, 12.0e3, 4.2},
    // --- Scripts: Python 53.5%, shell 20%, Ruby 10% (Fig. 18) ---
    {Type::kPythonScript, 0.535, 13.0e3, 4.2},
    {Type::kShellScript, 0.200, 3.0e3, 4.2},
    {Type::kRubyScript, 0.100, 5.0e3, 4.2},
    {Type::kPerlScript, 0.040, 9.0e3, 4.2},
    {Type::kPhpScript, 0.035, 10.0e3, 4.2},
    {Type::kNodeScript, 0.035, 9.0e3, 4.2},
    {Type::kMakefile, 0.020, 5.0e3, 4.2},
    {Type::kM4Script, 0.010, 8.0e3, 4.2},
    {Type::kAwkScript, 0.008, 4.0e3, 4.2},
    {Type::kTclScript, 0.007, 6.0e3, 4.2},
    {Type::kOtherScript, 0.010, 6.0e3, 4.2},
    // --- Documents: ASCII 80%, XML/HTML 13%, UTF 5% (Fig. 19) ---
    {Type::kAsciiText, 0.800, 9.0e3, 4.2},
    {Type::kXmlHtml, 0.130, 14.0e3, 4.8},
    {Type::kUtf8Text, 0.050, 8.0e3, 3.2},
    {Type::kIso8859Text, 0.004, 7.0e3, 3.2},
    {Type::kPdfPs, 0.008, 200.0e3, 1.15},
    {Type::kLatex, 0.004, 20.0e3, 4.2},
    {Type::kOtherDocument, 0.004, 30.0e3, 2.5},
    // --- Archival: zip/gzip 96.3% (Fig. 20; avg sizes from the paper) ---
    {Type::kZipGzip, 0.963, 67.0e3, 1.03},
    {Type::kBzip2, 0.020, 199.0e3, 1.02},
    {Type::kTarArchive, 0.008, 466.0e3, 2.5},
    {Type::kXz, 0.005, 534.0e3, 1.01},
    {Type::kOtherArchive, 0.004, 100.0e3, 1.5},
    // --- Image media: PNG 67%, JPEG 20% (Fig. 22) ---
    {Type::kPng, 0.670, 22.0e3, 1.03},
    {Type::kJpeg, 0.200, 33.0e3, 1.02},
    {Type::kGif, 0.060, 15.0e3, 1.05},
    {Type::kSvg, 0.050, 8.0e3, 4.0},
    {Type::kOtherImage, 0.020, 20.0e3, 2.0},
    // --- Databases: BDB 33%, MySQL 30%, SQLite 7%/57% cap. (Fig. 21) ---
    {Type::kBerkeleyDb, 0.330, 500.0e3, 6.0},
    {Type::kMysql, 0.300, 400.0e3, 6.0},
    {Type::kSqlite, 0.070, 9.0e6, 8.0},
    {Type::kOtherDb, 0.300, 300.0e3, 5.0},
    // --- Other ---
    {Type::kOtherBinary, 0.975, 20.0e3, 2.2},
    {Type::kVideo, 0.010, 2.0e6, 1.02},
    {Type::kPdfPs, 0.0, 0.0, 1.0},  // sentinel row (never drawn)
};

constexpr double kSigmaDefault = 1.2;
// Group reweights for the biased mixtures (EOL, SC, Scr, Doc, Arch, Img,
// DB, Other). Big-file layers are archive/binary/DB heavy; file-heavy
// layers skew mildly toward small text-ish types.
constexpr double kBigFileReweight[8] = {4.5, 0.3, 0.3, 0.2, 1.8, 1.5, 15.0, 1.2};
constexpr double kSmallFileReweight[8] = {0.6, 1.1, 1.1, 1.6, 0.8, 0.9, 0.8, 0.9};
// Popular pool contents are smaller (the most repeated files are empty
// files, tiny scripts, license texts) -- this is what pushes the capacity
// dedup ratio (6.9x) below the count dedup ratio (31.5x).
constexpr double kRankSizeExponent = 0.30;

}  // namespace

FileModel::FileModel(const Calibration& cal,
                     std::uint64_t expected_instances, std::uint64_t seed)
    : cal_(cal), seed_(seed) {
  spec_of_type_.assign(filetype::kTypeCount, -1);
  group_members_.resize(filetype::kGroupCount);

  // Assemble absolute weights: group share x normalized within-group share.
  double group_totals[filetype::kGroupCount] = {};
  for (const RawSpec& raw : kRawSpecs) {
    if (raw.within_group_weight <= 0.0) continue;
    group_totals[static_cast<std::size_t>(filetype::group_of(raw.type))] +=
        raw.within_group_weight;
  }
  for (const RawSpec& raw : kRawSpecs) {
    if (raw.within_group_weight <= 0.0) continue;
    const auto group = filetype::group_of(raw.type);
    const auto g = static_cast<std::size_t>(group);
    TypeSpec spec;
    spec.type = raw.type;
    spec.weight = cal_.group_count_share[g] * raw.within_group_weight /
                  group_totals[g];
    spec.mean_size = raw.mean_size * std::max(1e-6, cal_.file_size_scale);
    spec.sigma = kSigmaDefault;
    spec.gzip_ratio = raw.gzip_ratio;
    spec_of_type_[static_cast<std::size_t>(raw.type)] =
        static_cast<std::int16_t>(specs_.size());
    group_members_[g].push_back(static_cast<std::uint32_t>(specs_.size()));
    specs_.push_back(spec);
  }

  // Group alias tables (neutral + biased) and per-group type tables.
  std::vector<double> neutral(filetype::kGroupCount), big(filetype::kGroupCount),
      small(filetype::kGroupCount);
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    neutral[g] = cal_.group_count_share[g];
    big[g] = neutral[g] * kBigFileReweight[g];
    small[g] = neutral[g] * kSmallFileReweight[g];
    std::vector<double> member_weights;
    member_weights.reserve(group_members_[g].size());
    for (std::uint32_t idx : group_members_[g]) {
      member_weights.push_back(specs_[idx].weight);
    }
    if (member_weights.empty()) member_weights.push_back(1.0);
    per_group_alias_.emplace_back(member_weights);
  }
  group_alias_[static_cast<int>(SizeBias::kNeutral)] = stats::AliasTable(neutral);
  group_alias_[static_cast<int>(SizeBias::kBigFiles)] = stats::AliasTable(big);
  group_alias_[static_cast<int>(SizeBias::kSmallFiles)] = stats::AliasTable(small);

  // Pool sizing: distribute the Heaps-law distinct-content budget across
  // types proportionally to their instance counts.
  const double distinct_budget =
      kHeapsK * std::pow(static_cast<double>(std::max<std::uint64_t>(
                             expected_instances, 1000)),
                         kHeapsBeta);
  pool_sizes_.reserve(specs_.size());
  pool_zipf_.reserve(specs_.size());
  double total_weight = 0.0;
  for (const TypeSpec& spec : specs_) total_weight += spec.weight;
  for (const TypeSpec& spec : specs_) {
    const double share = spec.weight / total_weight;
    const double mult =
        cal_.pool_budget_mult[static_cast<std::size_t>(
            filetype::group_of(spec.type))];
    const auto pool = static_cast<std::uint64_t>(
        std::max<double>(static_cast<double>(cal_.pool_min_size),
                         distinct_budget * share * mult));
    pool_sizes_.push_back(pool);
    pool_zipf_.emplace_back(pool, cal_.pool_zipf_s);
    mean_file_size_ +=
        share * spec.mean_size;  // lognormal mean folded into mean_size below
  }
}

ContentId FileModel::make_pool_id(std::size_t type_index,
                                  std::uint64_t rank) const {
  const auto type = static_cast<std::uint64_t>(
      static_cast<std::uint8_t>(specs_[type_index].type));
  return (type << 56) | (rank & 0x00ffffffffffffffULL);
}

ContentId FileModel::draw_content(util::Rng& rng, SizeBias bias) const {
  // THE empty file.
  if (rng.chance(cal_.empty_file_prob)) return kEmptyContentId;

  const std::size_t g = group_alias_[static_cast<int>(bias)].sample(rng);
  const std::size_t member = per_group_alias_[g].sample(rng);
  const std::size_t spec_index =
      group_members_[g].empty() ? 0 : group_members_[g][member];

  if (rng.chance(cal_.fresh_prob[g])) {
    const auto type = static_cast<std::uint64_t>(
        static_cast<std::uint8_t>(specs_[spec_index].type));
    return (1ULL << 63) | (type << 56) | (rng() & 0x00ffffffffffffffULL);
  }
  const std::uint64_t rank = pool_zipf_[spec_index].sample(rng) - 1;
  return make_pool_id(spec_index, rank);
}

filetype::Type FileModel::type_of(ContentId id) const noexcept {
  if (id == kEmptyContentId) return filetype::Type::kEmpty;
  return static_cast<filetype::Type>(
      static_cast<std::uint8_t>((id >> 56) & 0x7f));
}

filetype::Group FileModel::group_of(ContentId id) const noexcept {
  return filetype::group_of(type_of(id));
}

std::uint64_t FileModel::size_of(ContentId id) const noexcept {
  if (id == kEmptyContentId) return 0;
  const auto spec_idx = spec_of_type_[static_cast<std::size_t>(type_of(id))];
  if (spec_idx < 0) return 0;
  const TypeSpec& spec = specs_[static_cast<std::size_t>(spec_idx)];

  // Deterministic per-content size: seed an Rng from (snapshot seed, id).
  std::uint64_t s = seed_ ^ (id * 0x9e3779b97f4a7c15ULL);
  util::Rng rng(util::splitmix64(s));

  // mu so that the lognormal MEAN equals spec.mean_size.
  const double sigma = spec.sigma;
  double mu = std::log(spec.mean_size) - sigma * sigma / 2.0;

  if (!is_fresh(id)) {
    // Rank-dependent shrink: popular (low-rank) contents are smaller. This
    // is what separates the paper's capacity dedup (6.9x) from its count
    // dedup (31.5x): hot contents (empty files, tiny scripts, licenses)
    // carry little capacity.
    const std::uint64_t rank = id & 0x00ffffffffffffffULL;
    const std::uint64_t pool = pool_sizes_[static_cast<std::size_t>(spec_idx)];
    const double rel =
        static_cast<double>(rank + 1) / static_cast<double>(pool + 1);
    // Normalize so the INSTANCE-weighted mean stays near spec.mean_size:
    // under Zipf(s) rank draws, E[(r/P)^a] ~= (1-s)/(1+a-s).
    const double s_exp = cal_.pool_zipf_s;
    const double norm = (1.0 + kRankSizeExponent - s_exp) / (1.0 - s_exp);
    mu += kRankSizeExponent * std::log(rel) + std::log(norm);
  }
  const double size = std::exp(mu + sigma * rng.normal());
  // Floor: room for the full magic signature plus the 16-char uniquifier
  // token materialize() embeds, so (a) every non-empty content classifies
  // to its intended type and (b) distinct content ids always materialize
  // to distinct bytes (bytes-mode dedup == metadata-mode dedup).
  const std::uint64_t floor_size =
      filetype::magic_for(type_of(id)).size() + 16;
  return std::max<std::uint64_t>(
      floor_size, static_cast<std::uint64_t>(std::max(1.0, size)));
}

double FileModel::gzip_ratio_of(ContentId id) const noexcept {
  if (id == kEmptyContentId) return 1.0;
  const auto spec_idx = spec_of_type_[static_cast<std::size_t>(type_of(id))];
  if (spec_idx < 0) return 1.5;
  double ratio = specs_[static_cast<std::size_t>(spec_idx)].gzip_ratio;
  // Sparse outliers: a small share of DB-like contents are mostly zero
  // pages and compress enormously -- these produce the far tail of the
  // paper's Fig. 4 (max layer ratio ~1026).
  if (ratio >= 5.0) {
    std::uint64_t h = id ^ seed_;
    if (util::splitmix64(h) % 10 == 0) ratio *= 120.0;
  }
  return std::min(ratio, 1026.0);
}

std::string FileModel::materialize(ContentId id) const {
  std::string out;
  out.reserve(size_of(id));
  materialize_into(id, out, {});
  return out;
}

void FileModel::materialize_into(ContentId id, std::string& out,
                                 const std::function<void()>& on_block) const {
  if (id == kEmptyContentId) return;
  const filetype::Type type = type_of(id);
  const std::uint64_t size = size_of(id);
  std::uint64_t s = seed_ ^ (id * 0xc2b2ae3d27d4eb4fULL);
  util::Rng rng(util::splitmix64(s));

  // magic + 16-hex-char uniquifier + compressibility-tuned filler. The
  // token keeps distinct ids byte-distinct even for tiny files and is
  // plain ASCII so it never breaks the text heuristics.
  const std::size_t start = out.size();
  out += filetype::magic_for(type);
  std::uint64_t token_seed = id ^ 0x5851f42d4c957f2dULL;
  const std::uint64_t token = util::splitmix64(token_seed);
  static constexpr char kHex[] = "0123456789abcdef";
  for (int nibble = 0; nibble < 16; ++nibble) {
    out += kHex[(token >> (4 * nibble)) & 0xf];
  }
  const std::size_t head = out.size() - start;
  if (head > size) {
    out.resize(start + size);  // unreachable given the size_of floor; safety net
    return;
  }
  // Text-typed contents must stay printable ASCII or the classifier would
  // call them binary.
  const filetype::Group group = filetype::group_of(type);
  const bool ascii_safe =
      group == filetype::Group::kSourceCode ||
      group == filetype::Group::kScripts || type == filetype::Type::kAsciiText ||
      type == filetype::Type::kUtf8Text || type == filetype::Type::kIso8859Text ||
      type == filetype::Type::kXmlHtml || type == filetype::Type::kLatex ||
      type == filetype::Type::kSvg;
  compress::generate_into(out, static_cast<std::size_t>(size) - head,
                          gzip_ratio_of(id), rng, ascii_safe, on_block);
}

std::string FileModel::path_for(ContentId id, std::uint64_t instance_salt) const {
  return filetype::representative_path(type_of(id),
                                       util::splitmix64(instance_salt));
}

std::uint64_t FileModel::pool_entries(filetype::Type type) const noexcept {
  const auto spec_idx = spec_of_type_[static_cast<std::size_t>(type)];
  return spec_idx < 0 ? 0 : pool_sizes_[static_cast<std::size_t>(spec_idx)];
}

std::uint64_t FileModel::total_pool_entries() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t p : pool_sizes_) total += p;
  return total;
}

}  // namespace dockmine::synth
