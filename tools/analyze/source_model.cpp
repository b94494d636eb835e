#include "source_model.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lexer.hpp"

namespace quicsteps::analyze {

namespace fs = std::filesystem;

namespace {

bool has_source_suffix(const fs::path& p, bool* is_header) {
  const std::string ext = p.extension().string();
  if (ext == ".hpp" || ext == ".h") {
    *is_header = true;
    return true;
  }
  if (ext == ".cpp" || ext == ".cc") {
    *is_header = false;
    return true;
  }
  return false;
}

std::string relative_to(const fs::path& p, const fs::path& base) {
  std::error_code ec;
  fs::path rel = fs::relative(p, base, ec);
  if (ec || rel.empty()) return {};
  std::string s = rel.generic_string();
  if (s.rfind("..", 0) == 0) return {};  // outside base
  return s;
}

}  // namespace

bool build_model(const std::vector<std::string>& paths,
                 const std::string& root, const std::string& include_base,
                 Model* model, std::string* error) {
  std::vector<std::pair<fs::path, bool>> inputs;  // path, is_header
  for (const auto& raw : paths) {
    fs::path p = fs::path(raw).lexically_normal();
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p), end;
      for (; it != end; ++it) {
        if (it->is_directory() && it->path().filename() == "testdata") {
          it.disable_recursion_pending();
          continue;
        }
        bool is_header = false;
        if (it->is_regular_file() &&
            has_source_suffix(it->path(), &is_header)) {
          inputs.emplace_back(it->path().lexically_normal(), is_header);
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      bool is_header = false;
      if (has_source_suffix(p, &is_header)) inputs.emplace_back(p, is_header);
    } else {
      *error = "no such file or directory: " + raw;
      return false;
    }
  }

  const fs::path root_p = fs::path(root).lexically_normal();
  const fs::path base_p = fs::path(include_base).lexically_normal();
  for (const auto& [path, is_header] : inputs) {
    SourceFile f;
    f.abs_path = path.string();
    f.rel_path = relative_to(path, root_p);
    if (f.rel_path.empty()) f.rel_path = path.generic_string();
    f.include_key = relative_to(path, base_p);
    if (!f.include_key.empty()) {
      const auto slash = f.include_key.find('/');
      if (slash != std::string::npos) f.layer = f.include_key.substr(0, slash);
    } else {
      // Outside the include base (the self-hosted tools/ tree): the layer
      // is still the first rel_path component so layering rules apply.
      const auto slash = f.rel_path.find('/');
      if (slash != std::string::npos) f.layer = f.rel_path.substr(0, slash);
    }
    f.is_header = is_header;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
      *error = "cannot read " + f.abs_path;
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    f.lex = lex(buf.str());
    model->files.push_back(std::move(f));
  }

  std::sort(model->files.begin(), model->files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
  // Drop duplicates (the same file named twice on the command line).
  model->files.erase(
      std::unique(model->files.begin(), model->files.end(),
                  [](const SourceFile& a, const SourceFile& b) {
                    return a.rel_path == b.rel_path;
                  }),
      model->files.end());
  for (std::size_t i = 0; i < model->files.size(); ++i) {
    if (!model->files[i].include_key.empty()) {
      model->by_include_key.emplace(model->files[i].include_key, i);
    }
  }
  return true;
}

}  // namespace quicsteps::analyze
