// A scratch path for tests that write to disk.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace tlm {

// /tmp/tlm_<name>_<pid>: unique per test process (ctest runs every case in
// its own). Whatever the test creates there, a file or a directory tree, is
// removed when the object goes out of scope, so a test leaves nothing
// behind whether it passes, fails an assertion or throws.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("/tmp/tlm_" + name + "_" + std::to_string(::getpid())) {}
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace tlm
