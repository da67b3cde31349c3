// Tiny declarative flag parser for the dockmine CLI.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace dockmine::tools {

class Flags {
 public:
  /// Parse "--name value" and "--name=value" pairs after the subcommand.
  static Flags parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        flags.positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values_[arg] = argv[++i];
      } else {
        flags.values_[arg] = "true";
      }
    }
    return flags;
  }

  std::string str(const std::string& name, std::string fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  bool flag(const std::string& name) const {
    const auto it = values_.find(name);
    return it != values_.end() && it->second != "false";
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dockmine::tools
