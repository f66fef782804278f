#include "statsdb/database.h"

#include "statsdb/sql.h"

namespace ff {
namespace statsdb {

Database::Database()
    : cache_(std::make_unique<QueryCache>(CacheConfig::FromEnv())) {}

Database::~Database() = default;

util::StatusOr<Table*> Database::CreateTable(const std::string& name,
                                             Schema schema) {
  if (name.empty()) {
    return util::Status::InvalidArgument("empty table name");
  }
  if (tables_.count(name)) {
    return util::Status::AlreadyExists("table " + name);
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  ++catalog_epoch_;
  return ptr;
}

util::Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return util::Status::NotFound("table " + name);
  }
  ++catalog_epoch_;
  return util::Status::OK();
}

util::StatusOr<Table*> Database::table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return util::Status::NotFound("table " + name);
  return it->second.get();
}

util::StatusOr<const Table*> Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return util::Status::NotFound("table " + name);
  return static_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

util::StatusOr<ResultSet> Database::Sql(const std::string& statement) {
  return ExecuteSql(this, statement);
}

util::StatusOr<PreparedStatement> Database::Prepare(
    const std::string& statement) {
  return PrepareSql(this, statement);
}

}  // namespace statsdb
}  // namespace ff
