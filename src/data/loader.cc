#include "data/loader.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "data/synthetic.h"
#include "util/csv.h"

namespace ganc {

Result<LoadedDataset> LoadRatingsFile(const std::string& path,
                                      const LoaderOptions& options) {
  Result<CsvTable> table =
      ReadDelimited(path, options.delimiter, options.skip_header);
  if (!table.ok()) return table.status();

  const int max_col = std::max(
      {options.user_column, options.item_column, options.rating_column});

  std::unordered_map<std::string, UserId> user_index;
  std::unordered_map<std::string, ItemId> item_index;
  LoadedDataset out;

  struct Triple {
    UserId user;
    ItemId item;
    float value;
  };
  std::vector<Triple> triples;
  triples.reserve(table->rows.size());

  size_t line_no = 0;
  for (const auto& row : table->rows) {
    ++line_no;
    if (static_cast<int>(row.size()) <= max_col) {
      return Status::InvalidArgument("row " + std::to_string(line_no) +
                                     " has too few columns in " + path);
    }
    const std::string& user_key = row[static_cast<size_t>(options.user_column)];
    const std::string& item_key = row[static_cast<size_t>(options.item_column)];
    char* end = nullptr;
    const std::string& rating_str =
        row[static_cast<size_t>(options.rating_column)];
    const double raw = std::strtod(rating_str.c_str(), &end);
    if (end == rating_str.c_str()) {
      return Status::InvalidArgument("row " + std::to_string(line_no) +
                                     ": unparsable rating '" + rating_str +
                                     "' in " + path);
    }
    auto [uit, uinserted] = user_index.try_emplace(
        user_key, static_cast<UserId>(out.user_ids.size()));
    if (uinserted) out.user_ids.push_back(user_key);
    auto [iit, iinserted] = item_index.try_emplace(
        item_key, static_cast<ItemId>(out.item_ids.size()));
    if (iinserted) out.item_ids.push_back(item_key);
    triples.push_back(
        {uit->second, iit->second,
         static_cast<float>(raw * options.rating_scale + options.rating_offset)});
  }

  if (options.keep_last_duplicate) {
    // Later occurrences of a (user, item) pair overwrite earlier ones.
    std::map<std::pair<UserId, ItemId>, float> dedup;
    for (const Triple& t : triples) dedup[{t.user, t.item}] = t.value;
    triples.clear();
    for (const auto& [key, value] : dedup) {
      triples.push_back({key.first, key.second, value});
    }
  }

  RatingDatasetBuilder builder(static_cast<int32_t>(out.user_ids.size()),
                               static_cast<int32_t>(out.item_ids.size()));
  for (const Triple& t : triples) {
    GANC_RETURN_NOT_OK(builder.Add(t.user, t.item, t.value));
  }
  Result<RatingDataset> built = std::move(builder).Build();
  if (!built.ok()) return built.status();
  out.dataset = std::move(built).value();
  return out;
}

Status SaveRatingsFile(const RatingDataset& dataset, const std::string& path,
                       char delimiter) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(static_cast<size_t>(dataset.num_ratings()));
  for (const Rating& r : dataset.ratings()) {
    rows.push_back({std::to_string(r.user), std::to_string(r.item),
                    FormatDouble(r.value, 2)});
  }
  return WriteDelimited(path, delimiter, rows);
}

Result<RatingDataset> LoadDatasetFromFlags(const Flags& flags) {
  const std::string cache = flags.GetString("dataset-cache", "");
  if (!cache.empty()) {
    if (flags.Has("ratings-file") || flags.Has("dataset")) {
      return Status::InvalidArgument(
          "--dataset-cache conflicts with --ratings-file/--dataset (pick one "
          "data source)");
    }
    // --mmap (default on) maps the cache; --mmap=false (or a platform
    // without mmap) reads it into memory. Rows are borrowed either way.
    return RatingDataset::LoadFileAuto(cache, flags.GetBool("mmap", true));
  }
  const std::string file = flags.GetString("ratings-file", "");
  if (!file.empty()) {
    LoaderOptions opts;
    const std::string delim = flags.GetString("delimiter", ",");
    opts.delimiter = delim.empty() ? ',' : delim[0];
    opts.skip_header = flags.GetBool("skip-header", false);
    Result<LoadedDataset> loaded = LoadRatingsFile(file, opts);
    if (!loaded.ok()) return loaded.status();
    return std::move(loaded).value().dataset;
  }
  const std::string name = flags.GetString("dataset", "ml100k");
  SyntheticSpec spec;
  if (name == "ml100k") {
    spec = MovieLens100KSpec();
  } else if (name == "ml1m") {
    spec = MovieLens1MSpec();
  } else if (name == "ml10m") {
    spec = MovieLens10MScaledSpec();
  } else if (name == "mt200k") {
    spec = MovieTweetings200KSpec();
  } else if (name == "netflix") {
    spec = NetflixScaledSpec();
  } else if (name == "tiny") {
    spec = TinySpec();
  } else {
    return Status::InvalidArgument("unknown dataset preset '" + name + "'");
  }
  return GenerateSynthetic(spec);
}

}  // namespace ganc
