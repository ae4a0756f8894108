#include "tenant/archive_store.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/population_io.hpp"
#include "pareto/archive.hpp"

namespace eus::tenant {
namespace {

constexpr std::size_t kMaxTenantIdLength = 64;

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_double(const std::string& token) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end != begin + token.size() || token.empty()) {
    throw std::runtime_error("bad number '" + token + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& token) {
  if (token.empty() ||
      !std::all_of(token.begin(), token.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; })) {
    throw std::runtime_error("bad integer '" + token + "'");
  }
  return std::strtoull(token.c_str(), nullptr, 10);
}

/// Splits checkpoint text into lines; a file not ending in '\n' is a
/// truncated write and parses as corrupt.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : text_(text) {}
  bool next(std::string& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      throw std::runtime_error("truncated checkpoint (no trailing newline)");
    }
    line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

std::vector<std::string> split_words(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> words;
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

}  // namespace

bool valid_tenant_id(std::string_view id) {
  if (id.empty() || id.size() > kMaxTenantIdLength) return false;
  return std::all_of(id.begin(), id.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '.' || c == '_' || c == '-';
  });
}

ArchiveStore::ArchiveStore(ArchiveConfig config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {
  if (metrics_ != nullptr) {
    warm_hits_ = &metrics_->counter("archive.warm_hits");
    misses_ = &metrics_->counter("archive.misses");
    inserts_ = &metrics_->counter("archive.inserts");
    evictions_ = &metrics_->counter("archive.evictions");
    tenant_evictions_ = &metrics_->counter("archive.tenant_evictions");
    flushes_ = &metrics_->counter("archive.flushes");
    checkpoint_saved_ = &metrics_->counter("archive.checkpoint.saved");
    checkpoint_loaded_ = &metrics_->counter("archive.checkpoint.loaded");
    checkpoint_corrupt_ = &metrics_->counter("archive.checkpoint.corrupt");
    tenants_gauge_ = &metrics_->gauge("archive.tenants");
    entries_gauge_ = &metrics_->gauge("archive.entries");
    genomes_gauge_ = &metrics_->gauge("archive.genomes");
  }
}

ArchiveStore::TenantState* ArchiveStore::find_tenant(const std::string& name) {
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->name == name) {
      tenants_.splice(tenants_.begin(), tenants_, it);  // mark recently used
      return &tenants_.front();
    }
  }
  return nullptr;
}

ArchiveStore::TenantState& ArchiveStore::touch_tenant(const std::string& name) {
  if (TenantState* t = find_tenant(name)) return *t;
  tenants_.push_front(
      TenantState{name, config_.entries_per_tenant, 0, 0, {}});
  while (tenants_.size() > config_.max_tenants) {
    if (evictions_ != nullptr) {
      evictions_->add(tenants_.back().entries.size());
    }
    if (tenant_evictions_ != nullptr) tenant_evictions_->add();
    tenants_.pop_back();
  }
  return tenants_.front();
}

void ArchiveStore::trim_tenant(TenantState& t) {
  while (t.entries.size() > t.cap) {
    t.entries.pop_back();
    if (evictions_ != nullptr) evictions_->add();
  }
}

void ArchiveStore::update_gauges() {
  if (tenants_gauge_ == nullptr) return;
  std::size_t n_entries = 0;
  std::size_t n_genomes = 0;
  for (const auto& t : tenants_) {
    n_entries += t.entries.size();
    for (const auto& e : t.entries) n_genomes += e.genomes.size();
  }
  tenants_gauge_->set(static_cast<double>(tenants_.size()));
  entries_gauge_->set(static_cast<double>(n_entries));
  genomes_gauge_->set(static_cast<double>(n_genomes));
}

std::size_t ArchiveStore::put(const std::string& tenant,
                              const std::string& scenario_key,
                              const std::string& lineage,
                              const std::vector<Allocation>& genomes,
                              const std::vector<EUPoint>& points) {
  if (genomes.size() != points.size()) {
    throw std::invalid_argument("archive put: genome/point count mismatch");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  TenantState& t = touch_tenant(tenant);

  StoredEntry* entry = nullptr;
  for (auto it = t.entries.begin(); it != t.entries.end(); ++it) {
    if (it->key == scenario_key) {
      t.entries.splice(t.entries.begin(), t.entries, it);
      entry = &t.entries.front();
      break;
    }
  }
  if (entry == nullptr) {
    t.entries.push_front(StoredEntry{scenario_key, lineage, 0, {}, {}});
    entry = &t.entries.front();
    trim_tenant(t);
  }

  // Merge existing + new through a bounded ParetoArchive: tags index the
  // candidate pool (existing first, so a re-submitted equal point keeps its
  // original genome), fingerprints reject duplicate genomes outright.
  std::vector<const Allocation*> pool;
  std::vector<EUPoint> pool_points;
  pool.reserve(entry->genomes.size() + genomes.size());
  for (std::size_t i = 0; i < entry->genomes.size(); ++i) {
    pool.push_back(&entry->genomes[i]);
    pool_points.push_back(entry->points[i]);
  }
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    pool.push_back(&genomes[i]);
    pool_points.push_back(points[i]);
  }
  ParetoArchive merged(config_.genomes_per_entry);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (merged.insert(pool_points[i], i, genome_fingerprint(*pool[i])) &&
        inserts_ != nullptr) {
      inserts_->add();
    }
  }

  std::vector<Allocation> merged_genomes;
  std::vector<EUPoint> merged_points;
  merged_genomes.reserve(merged.size());
  merged_points.reserve(merged.size());
  for (const auto& e : merged.entries()) {
    merged_genomes.push_back(*pool[e.tag]);
    merged_points.push_back(e.point);
  }
  entry->genomes = std::move(merged_genomes);
  entry->points = std::move(merged_points);
  entry->lineage = lineage;
  ++entry->revision;

  update_gauges();
  return entry->genomes.size();
}

std::optional<ArchivedFront> ArchiveStore::lookup(
    const std::string& tenant, const std::string& scenario_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TenantState* t = find_tenant(tenant);
  if (t == nullptr) {
    if (misses_ != nullptr) misses_->add();
    return std::nullopt;
  }
  for (auto it = t->entries.begin(); it != t->entries.end(); ++it) {
    if (it->key == scenario_key) {
      t->entries.splice(t->entries.begin(), t->entries, it);
      ++t->warm_hits;
      if (warm_hits_ != nullptr) warm_hits_->add();
      const StoredEntry& e = t->entries.front();
      return ArchivedFront{e.key, e.lineage, e.revision, e.genomes, e.points};
    }
  }
  ++t->misses;
  if (misses_ != nullptr) misses_->add();
  return std::nullopt;
}

std::vector<TenantStats> ArchiveStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    TenantStats s;
    s.tenant = t.name;
    s.entries = t.entries.size();
    for (const auto& e : t.entries) s.genomes += e.genomes.size();
    s.cap = t.cap;
    s.warm_hits = t.warm_hits;
    s.misses = t.misses;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ArchiveStore::flush(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t flushed = 0;
  if (tenant.empty()) {
    for (const auto& t : tenants_) flushed += t.entries.size();
    tenants_.clear();
  } else {
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      if (it->name == tenant) {
        flushed = it->entries.size();
        tenants_.erase(it);
        break;
      }
    }
  }
  if (flushes_ != nullptr && flushed > 0) flushes_->add(flushed);
  update_gauges();
  return flushed;
}

bool ArchiveStore::set_tenant_cap(const std::string& tenant, std::size_t cap) {
  if (cap == 0) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  TenantState& t = touch_tenant(tenant);
  t.cap = cap;
  trim_tenant(t);
  update_gauges();
  return true;
}

std::size_t ArchiveStore::tenants() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

std::size_t ArchiveStore::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& t : tenants_) n += t.entries.size();
  return n;
}

std::size_t ArchiveStore::genomes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& t : tenants_) {
    for (const auto& e : t.entries) n += e.genomes.size();
  }
  return n;
}

std::string ArchiveStore::checkpoint_string() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << kCheckpointHeader << '\n';
  for (const auto& t : tenants_) {
    os << "tenant " << t.name << " cap " << t.cap << " hits " << t.warm_hits
       << " misses " << t.misses << '\n';
    for (const auto& e : t.entries) {
      os << "entry rev " << e.revision << " points " << e.points.size()
         << '\n';
      os << "key " << e.key << '\n';
      os << "lineage " << (e.lineage.empty() ? "-" : e.lineage) << '\n';
      for (const auto& p : e.points) {
        os << "point " << format_double(p.energy) << ' '
           << format_double(p.utility) << '\n';
      }
      os << population_to_string(e.genomes);
      os << "end entry\n";
    }
    os << "end tenant\n";
  }
  return os.str();
}

ArchiveStore::LoadResult ArchiveStore::restore(const std::string& text) {
  std::list<TenantState> parsed;
  try {
    LineReader reader(text);
    std::string line;
    if (!reader.next(line) || line != kCheckpointHeader) {
      throw std::runtime_error("bad checkpoint header");
    }
    while (reader.next(line)) {
      auto words = split_words(line);
      if (words.size() != 8 || words[0] != "tenant" || words[2] != "cap" ||
          words[4] != "hits" || words[6] != "misses" ||
          !valid_tenant_id(words[1])) {
        throw std::runtime_error("bad tenant line '" + line + "'");
      }
      TenantState t;
      t.name = words[1];
      t.cap = static_cast<std::size_t>(parse_u64(words[3]));
      t.warm_hits = parse_u64(words[5]);
      t.misses = parse_u64(words[7]);
      if (t.cap == 0) throw std::runtime_error("zero tenant cap");
      for (const auto& existing : parsed) {
        if (existing.name == t.name) {
          throw std::runtime_error("duplicate tenant '" + t.name + "'");
        }
      }

      for (;;) {
        if (!reader.next(line)) {
          throw std::runtime_error("truncated tenant block");
        }
        if (line == "end tenant") break;
        words = split_words(line);
        if (words.size() != 5 || words[0] != "entry" || words[1] != "rev" ||
            words[3] != "points") {
          throw std::runtime_error("bad entry line '" + line + "'");
        }
        StoredEntry e;
        e.revision = parse_u64(words[2]);
        const std::size_t n_points =
            static_cast<std::size_t>(parse_u64(words[4]));

        if (!reader.next(line) || line.rfind("key ", 0) != 0 ||
            line.size() <= 4) {
          throw std::runtime_error("bad key line");
        }
        e.key = line.substr(4);
        for (const auto& existing : t.entries) {
          if (existing.key == e.key) {
            throw std::runtime_error("duplicate entry key '" + e.key + "'");
          }
        }
        if (!reader.next(line) || line.rfind("lineage ", 0) != 0 ||
            line.size() <= 8) {
          throw std::runtime_error("bad lineage line");
        }
        e.lineage = line.substr(8);
        if (e.lineage == "-") e.lineage.clear();

        for (std::size_t i = 0; i < n_points; ++i) {
          if (!reader.next(line)) throw std::runtime_error("truncated points");
          words = split_words(line);
          if (words.size() != 3 || words[0] != "point") {
            throw std::runtime_error("bad point line '" + line + "'");
          }
          EUPoint p{parse_double(words[1]), parse_double(words[2])};
          if (!std::isfinite(p.energy) || !std::isfinite(p.utility)) {
            throw std::runtime_error("non-finite point");
          }
          // Entries are stored ascending in both axes (nondominated set).
          if (!e.points.empty() && (p.energy <= e.points.back().energy ||
                                    p.utility <= e.points.back().utility)) {
            throw std::runtime_error("points not a sorted nondominated set");
          }
          e.points.push_back(p);
        }

        std::string genome_text;
        for (;;) {
          if (!reader.next(line)) {
            throw std::runtime_error("truncated genome block");
          }
          if (line == "end entry") break;
          genome_text += line;
          genome_text += '\n';
        }
        e.genomes = population_from_string(genome_text);
        if (e.genomes.size() != n_points) {
          throw std::runtime_error("genome/point count mismatch");
        }
        t.entries.push_back(std::move(e));
      }
      trim_tenant(t);
      parsed.push_back(std::move(t));
    }
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    tenants_.clear();
    if (checkpoint_corrupt_ != nullptr) checkpoint_corrupt_->add();
    update_gauges();
    return LoadResult::kCorrupt;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  tenants_ = std::move(parsed);
  while (tenants_.size() > config_.max_tenants) tenants_.pop_back();
  if (checkpoint_loaded_ != nullptr) checkpoint_loaded_->add();
  update_gauges();
  return LoadResult::kLoaded;
}

ArchiveStore::LoadResult ArchiveStore::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return LoadResult::kMissing;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return LoadResult::kMissing;
  return restore(buffer.str());
}

bool ArchiveStore::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << checkpoint_string();
    out.flush();
    if (!out.good()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  if (checkpoint_saved_ != nullptr) checkpoint_saved_->add();
  return true;
}

}  // namespace eus::tenant
