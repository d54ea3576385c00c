#include "trace/tracer.hpp"

#include "util/error.hpp"

namespace wasp::trace {

std::int16_t Tracer::register_fs(fs::FileSystemSim& fs) {
  for (std::size_t i = 0; i < filesystems_.size(); ++i) {
    if (filesystems_[i] == &fs) return static_cast<std::int16_t>(i);
  }
  WASP_CHECK_MSG(filesystems_.size() <= 0x7fff,
                 "tracer: more than 32768 filesystems registered");
  filesystems_.push_back(&fs);
  return static_cast<std::int16_t>(filesystems_.size() - 1);
}

fs::FileSystemSim& Tracer::filesystem(std::int16_t idx) const {
  WASP_CHECK_MSG(idx >= 0 && static_cast<std::size_t>(idx) <
                                 filesystems_.size(),
                 "bad fs index in trace");
  return *filesystems_[static_cast<std::size_t>(idx)];
}

std::uint16_t Tracer::register_app(std::string name) {
  WASP_CHECK_MSG(apps_.size() <= 0xffff,
                 "tracer: more than 65536 apps registered");
  apps_.push_back(std::move(name));
  return static_cast<std::uint16_t>(apps_.size() - 1);
}

const std::string& Tracer::app_name(std::uint16_t app) const {
  WASP_CHECK_MSG(app < apps_.size(), "bad app index in trace");
  return apps_[app];
}

std::string Tracer::path_of(const FileKey& key, int node) const {
  if (!key.valid()) return "";
  auto& fs = filesystem(key.fs);
  auto& ns = fs.ns(fs::ProcSite{fs.shared() ? 0 : node, 0});
  if (key.file < ns.inodes().size()) {
    return ns.inodes()[key.file].path;
  }
  return "";
}

}  // namespace wasp::trace
