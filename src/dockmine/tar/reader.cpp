#include "dockmine/tar/reader.h"

#include <algorithm>
#include <cstring>

namespace dockmine::tar {

bool is_whiteout(std::string_view path) noexcept {
  const std::size_t slash = path.rfind('/');
  if (slash != std::string_view::npos) path = path.substr(slash + 1);
  return path.substr(0, 4) == ".wh.";
}

util::Result<Parser::Event> Parser::next(std::string_view& input) {
  for (;;) {
    switch (state_) {
      case State::kFailed:
        return util::corrupt("tar parser in failed state");

      case State::kEnd:
        input = {};
        return Event::kEnd;

      case State::kPadding: {
        const std::size_t skip = std::min(padding_, input.size());
        input.remove_prefix(skip);
        padding_ -= skip;
        if (padding_ > 0) return Event::kNeedInput;
        state_ = State::kHeader;
        continue;
      }

      case State::kBody: {
        if (remaining_ == 0) {
          state_ = State::kPadding;
          return Event::kEntryEnd;
        }
        if (input.empty()) return Event::kNeedInput;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, input.size()));
        data_ = input.substr(0, take);
        input.remove_prefix(take);
        remaining_ -= take;
        return Event::kData;
      }

      case State::kLongName: {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, input.size()));
        long_name_.append(input.substr(0, take));
        input.remove_prefix(take);
        remaining_ -= take;
        if (remaining_ > 0) return Event::kNeedInput;
        // The body holds the real name (NUL-terminated) of the next member.
        long_name_.resize(std::min(long_name_.size(), long_name_.find('\0')));
        have_long_name_ = true;
        state_ = State::kPadding;
        continue;
      }

      case State::kHeader: {
        std::string_view block;
        if (block_fill_ == 0 && input.size() >= kBlockSize) {
          block = input.substr(0, kBlockSize);
          input.remove_prefix(kBlockSize);
        } else {
          const std::size_t take =
              std::min(kBlockSize - block_fill_, input.size());
          std::memcpy(block_ + block_fill_, input.data(), take);
          input.remove_prefix(take);
          block_fill_ += take;
          if (block_fill_ < kBlockSize) return Event::kNeedInput;
          block_fill_ = 0;
          block = std::string_view(block_, kBlockSize);
        }
        // End marker: two zero blocks; accept one as well.
        if (is_zero_block(block)) {
          state_ = State::kEnd;
          continue;
        }
        if (auto s = decode_header_into(block, header_); !s.ok()) {
          return fail(s.error());
        }
        const bool long_name = header_.type == EntryType::kGnuLongName;
        const bool has_body = long_name || header_.type == EntryType::kFile;
        remaining_ = has_body ? header_.size : 0;
        padding_ = padding_for(remaining_);
        if (long_name) {
          if (remaining_ > kMaxLongName) {
            return fail(util::corrupt("GNU long name of " +
                                      std::to_string(remaining_) +
                                      " bytes exceeds the " +
                                      std::to_string(kMaxLongName) +
                                      "-byte cap"));
          }
          long_name_.clear();
          state_ = State::kLongName;
          continue;
        }
        // Swap rather than assign: the displaced short name's capacity
        // becomes the next long name's scratch.
        if (have_long_name_) header_.name.swap(long_name_);
        have_long_name_ = false;
        data_ = {};
        state_ = State::kBody;
        return Event::kEntry;
      }
    }
  }
}

util::Status Parser::finish() const {
  switch (state_) {
    case State::kFailed:
      return util::corrupt("tar parser in failed state");
    case State::kHeader:
      if (block_fill_ == 0) return util::Status::success();
      return util::corrupt("trailing partial block in tar stream");
    case State::kBody:
    case State::kLongName:
      if (remaining_ == 0) return util::Status::success();
      return util::corrupt("tar entry body extends past archive end");
    case State::kPadding:
    case State::kEnd:
      return util::Status::success();
  }
  return util::Status::success();
}

util::Result<bool> Reader::next(Entry& out) {
  for (;;) {
    auto event = parser_.next(rest_);
    if (!event.ok()) return std::move(event).error();
    switch (event.value()) {
      case Parser::Event::kEntry:
        out.content = {};
        break;
      case Parser::Event::kData:
        // The whole archive is one piece, so a complete body arrives whole.
        out.content = parser_.data();
        break;
      case Parser::Event::kEntryEnd:
        out.header = parser_.header();
        return true;
      case Parser::Event::kEnd:
        return false;
      case Parser::Event::kNeedInput:
        if (auto s = parser_.finish(); !s.ok()) return s.error();
        return false;
    }
  }
}

util::Result<std::optional<Entry>> Reader::next() {
  Entry entry;
  auto got = next(entry);
  if (!got.ok()) return std::move(got).error();
  if (!got.value()) return std::optional<Entry>{};
  return std::optional<Entry>{std::move(entry)};
}

}  // namespace dockmine::tar
