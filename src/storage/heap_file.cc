#include "storage/heap_file.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

HeapFile::~HeapFile() {
  if (file_ != nullptr) {
    Status s = file_->Close();
    if (!s.ok()) {
      NF2_LOG(Warning) << "closing heap file " << path_ << " failed: " << s;
    }
  }
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(Env* env,
                                                   const std::string& path) {
  auto hf = std::make_unique<HeapFile>();
  hf->env_ = env;
  hf->path_ = path;
  NF2_ASSIGN_OR_RETURN(hf->file_,
                       env->NewRandomRWFile(path, /*truncate=*/true));
  hf->page_count_ = 0;
  return hf;
}

Result<std::unique_ptr<HeapFile>> HeapFile::Open(Env* env,
                                                 const std::string& path,
                                                 bool tolerate_torn_tail) {
  if (!env->FileExists(path)) {
    return Status::NotFound(StrCat("heap file ", path, " not found"));
  }
  NF2_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
  if (size % kPageSize != 0 && !tolerate_torn_tail) {
    return Status::Corruption(
        StrCat("heap file ", path, " size ", size,
               " is not a multiple of the page size"));
  }
  auto hf = std::make_unique<HeapFile>();
  hf->env_ = env;
  hf->path_ = path;
  NF2_ASSIGN_OR_RETURN(hf->file_,
                       env->NewRandomRWFile(path, /*truncate=*/false));
  hf->page_count_ = static_cast<PageId>(size / kPageSize);
  return hf;
}

Status HeapFile::ReadPage(PageId id, Page* page) {
  if (id >= page_count_) {
    return Status::OutOfRange(StrCat("page ", id, " past end"));
  }
  return file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize,
                     page->mutable_data());
}

Status HeapFile::WritePageAt(PageId id, const Page& page) {
  if (id > page_count_) {
    return Status::OutOfRange(StrCat("page ", id, " past end"));
  }
  NF2_RETURN_IF_ERROR(
      file_->Write(static_cast<uint64_t>(id) * kPageSize,
                   std::string_view(page.data(), kPageSize)));
  if (id == page_count_) ++page_count_;
  return Status::OK();
}

Status HeapFile::Sync() { return file_->Sync(); }

}  // namespace nf2
