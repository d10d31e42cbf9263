#include "ckpt/checkpoint.hpp"

#include <filesystem>
#include <fstream>

namespace virec::ckpt {

Encoder& CheckpointWriter::section(std::string name) {
  sections_.push_back(std::make_unique<Section>());
  sections_.back()->name = std::move(name);
  return sections_.back()->payload;
}

std::vector<u8> CheckpointWriter::bytes() const {
  Encoder out;
  out.put_u32(kMagic);
  out.put_u32(kFormatVersion);
  out.put_u64(config_hash_);
  out.put_u32(static_cast<u32>(sections_.size()));
  for (const auto& s : sections_) {
    out.put_str(s->name);
    const std::vector<u8>& payload = s->payload.bytes();
    out.put_u64(payload.size());
    out.put_u32(crc32(payload.data(), payload.size()));
    out.raw(payload.data(), payload.size());
  }
  return out.bytes();
}

void CheckpointWriter::write_file(const std::string& path) const {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // best effort
  }
  const std::vector<u8> data = bytes();
  write_file_atomic(path, data.data(), data.size());
}

CheckpointReader::CheckpointReader(const std::string& path,
                                   u64 expected_config_hash)
    : path_(path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw CkptError("cannot open checkpoint " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  file_.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(file_.data()), size);
  if (!in) throw CkptError("cannot read checkpoint " + path);

  Decoder header(file_.data(), file_.size(), "header of " + path);
  const u32 magic = header.get_u32();
  if (magic != kMagic) {
    throw CkptError(path + ": not a checkpoint file (bad magic)");
  }
  version_ = header.get_u32();
  if (version_ != kFormatVersion) {
    throw CkptError(path + ": unsupported format version " +
                    std::to_string(version_) + " (this build reads " +
                    std::to_string(kFormatVersion) + ")");
  }
  config_hash_ = header.get_u64();
  if (config_hash_ != expected_config_hash) {
    throw CkptError(path +
                    ": config hash mismatch — snapshot was taken with a "
                    "different system configuration or workload");
  }
  const u32 count = header.get_u32();
  for (u32 i = 0; i < count; ++i) {
    Section s;
    s.name = header.get_str();
    const u64 payload_len = header.get_u64();
    const u32 expected_crc = header.get_u32();
    if (header.remaining() < payload_len) {
      throw CkptError(path + ": truncated (section '" + s.name +
                      "' claims " + std::to_string(payload_len) +
                      " bytes, only " + std::to_string(header.remaining()) +
                      " remain)");
    }
    s.offset = file_.size() - header.remaining();
    s.size = static_cast<std::size_t>(payload_len);
    const u32 actual_crc = crc32(file_.data() + s.offset, s.size);
    if (actual_crc != expected_crc) {
      throw CkptError(path + ": CRC mismatch in section '" + s.name +
                      "' (file corrupted)");
    }
    header.skip(s.size);
    sections_.push_back(std::move(s));
  }
  if (!header.done()) {
    throw CkptError(path + ": trailing bytes after last section");
  }
}

Decoder CheckpointReader::section(const std::string& name) {
  if (next_section_ >= sections_.size()) {
    throw CkptError(path_ + ": missing section '" + name + "'");
  }
  const Section& s = sections_[next_section_++];
  if (s.name != name) {
    throw CkptError(path_ + ": expected section '" + name + "', found '" +
                    s.name + "'");
  }
  return Decoder(file_.data() + s.offset, s.size, "section '" + name + "'");
}

void Sections::operator()(const std::string& name,
                          const std::function<void(Archive&)>& fields) {
  if (writer_ != nullptr) {
    Archive ar(writer_->section(name));
    fields(ar);
    return;
  }
  Decoder dec = reader_->section(name);
  Archive ar(dec);
  fields(ar);
  dec.finish();
}

}  // namespace virec::ckpt
