#include "workload/blueprint.h"

#include <cmath>

namespace aspect {
namespace {

int64_t Scaled(double scale, int64_t base) {
  const int64_t v = static_cast<int64_t>(std::llround(scale * static_cast<double>(base)));
  return v < 2 ? 2 : v;
}

TableBlueprint Root(std::string name, int64_t base, double growth,
                    std::vector<ColumnSpec> attrs = {}) {
  TableBlueprint t;
  t.name = std::move(name);
  t.kind = TableKind::kRoot;
  t.base_size = base;
  t.growth = growth;
  t.attributes = std::move(attrs);
  return t;
}

TableBlueprint Entity(std::string name, std::vector<std::string> parents,
                      int64_t base, double growth) {
  TableBlueprint t;
  t.name = std::move(name);
  t.kind = TableKind::kEntity;
  t.parents = std::move(parents);
  t.base_size = base;
  t.growth = growth;
  return t;
}

TableBlueprint Post(std::string name, std::vector<std::string> parents,
                    int64_t base, double growth) {
  TableBlueprint t;
  t.name = std::move(name);
  t.kind = TableKind::kPost;
  t.parents = std::move(parents);
  t.base_size = base;
  t.growth = growth;
  t.attributes = {{"kind", ColumnType::kInt64, ""}};
  return t;
}

TableBlueprint Activity(std::string name, std::vector<std::string> parents,
                        int64_t base, double growth,
                        double zipf = 0.8) {
  TableBlueprint t;
  t.name = std::move(name);
  t.kind = TableKind::kActivity;
  t.parents = std::move(parents);
  t.base_size = base;
  t.growth = growth;
  t.parent_zipf = zipf;
  t.attributes = {{"ts", ColumnType::kInt64, ""}};
  return t;
}

TableBlueprint Response(std::string name, std::string post_table,
                        std::string user_table, int64_t base,
                        double growth) {
  TableBlueprint t;
  t.name = std::move(name);
  t.kind = TableKind::kResponse;
  t.parents = {std::move(post_table), std::move(user_table)};
  t.base_size = base;
  t.growth = growth;
  t.attributes = {{"ts", ColumnType::kInt64, ""}};
  return t;
}

std::vector<ColumnSpec> UserAttrs() {
  return {{"country", ColumnType::kString, ""},
          {"gender", ColumnType::kInt64, ""}};
}

}  // namespace

Schema DatasetBlueprint::ToSchema() const {
  Schema schema;
  schema.name = name;
  schema.user_table = user_table;
  for (const TableBlueprint& t : tables) {
    TableSpec spec;
    spec.name = t.name;
    for (size_t p = 0; p < t.parents.size(); ++p) {
      ColumnSpec c;
      c.name = "fk_" + t.parents[p] + "_" + std::to_string(p);
      c.type = ColumnType::kForeignKey;
      c.ref_table = t.parents[p];
      spec.columns.push_back(std::move(c));
    }
    for (const ColumnSpec& a : t.attributes) spec.columns.push_back(a);
    schema.tables.push_back(std::move(spec));
  }
  // Response annotations: response tables wire (post, user); the post
  // table's author is its FK column to the user table.
  for (const TableBlueprint& t : tables) {
    if (t.kind != TableKind::kResponse) continue;
    ResponseSpec r;
    r.response_table = t.name;
    r.post_table = t.parents[0];
    r.post_col = 0;
    r.responder_col = 1;
    const int pt = schema.TableIndex(r.post_table);
    r.author_col = -1;
    if (pt >= 0) {
      const TableSpec& ps = schema.tables[static_cast<size_t>(pt)];
      for (size_t ci = 0; ci < ps.columns.size(); ++ci) {
        if (ps.columns[ci].type == ColumnType::kForeignKey &&
            ps.columns[ci].ref_table == user_table) {
          r.author_col = static_cast<int>(ci);
          break;
        }
      }
    }
    schema.responses.push_back(std::move(r));
  }
  return schema;
}

DatasetBlueprint XiamiLike(double scale) {
  DatasetBlueprint d;
  d.name = "XiamiLike";
  d.user_table = "User";
  auto s = [scale](int64_t base) { return Scaled(scale, base); };
  // Entities.
  d.tables.push_back(Root("User", s(240), 1.45, UserAttrs()));
  d.tables.push_back(Root("Artist", s(60), 1.35));
  d.tables.push_back(Root("Genre", s(12), 1.1));
  d.tables.push_back(Entity("Album", {"Artist"}, s(120), 1.4));
  d.tables.push_back(Entity("Song", {"Album"}, s(500), 1.45));
  d.tables.push_back(Entity("MV", {"Artist"}, s(50), 1.4));
  // Posts.
  d.tables.push_back(Post("Collection", {"User"}, s(90), 1.5));
  d.tables.push_back(Post("Photo", {"User"}, s(110), 1.55));
  d.tables.push_back(Post("Space", {"User"}, s(100), 1.45));
  d.tables.push_back(Post("Thread", {"User"}, s(70), 1.5));
  // Song activities.
  d.tables.push_back(Activity("Listen_Song", {"Song", "User"}, s(900), 1.6));
  d.tables.push_back(Activity("Lib_Song", {"Song", "User"}, s(600), 1.55));
  d.tables.push_back(Activity("Song_Comment", {"Song", "User"}, s(300), 1.5));
  d.tables.push_back(Activity("Song_Fav", {"Song", "User"}, s(250), 1.55));
  // Album activities.
  d.tables.push_back(Activity("Listen_Album", {"Album", "User"}, s(400), 1.55));
  d.tables.push_back(Activity("Lib_Album", {"Album", "User"}, s(260), 1.5));
  d.tables.push_back(Activity("Album_Comment", {"Album", "User"}, s(200), 1.45));
  // Artist activities.
  d.tables.push_back(Activity("Listen_Artist", {"Artist", "User"}, s(350), 1.55));
  d.tables.push_back(Activity("Lib_Artist", {"Artist", "User"}, s(220), 1.5));
  d.tables.push_back(Activity("Artist_Fan", {"Artist", "User"}, s(280), 1.5));
  d.tables.push_back(Activity("Artist_Comment", {"Artist", "User"}, s(180), 1.45));
  // MV activities.
  d.tables.push_back(Activity("MV_Comment", {"MV", "User"}, s(160), 1.5));
  d.tables.push_back(Activity("MV_Like", {"MV", "User"}, s(200), 1.55));
  // Links.
  d.tables.push_back(Activity("Collect_Song", {"Collection", "Song"}, s(400), 1.5));
  d.tables.push_back(Activity("Song_Genre", {"Song", "Genre"}, s(450), 1.45));
  d.tables.push_back(Activity("Artist_Genre", {"Artist", "Genre"}, s(80), 1.35));
  d.tables.push_back(Activity("User_Fan", {"User", "User"}, s(300), 1.5));
  // response2post instantiations (the 4 pairwise distributions).
  d.tables.push_back(Response("Photo_Comment", "Photo", "User", s(260), 1.55));
  d.tables.push_back(Response("Space_Comment", "Space", "User", s(240), 1.5));
  d.tables.push_back(Response("Collect_Like", "Collection", "User", s(220), 1.5));
  d.tables.push_back(Response("Thread_Comment", "Thread", "User", s(200), 1.55));
  return d;
}

DatasetBlueprint DoubanMovieLike(double scale) {
  DatasetBlueprint d;
  d.name = "DoubanMovieLike";
  d.user_table = "User";
  auto s = [scale](int64_t base) { return Scaled(scale, base); };
  d.tables.push_back(Root("User", s(260), 1.45, UserAttrs()));
  d.tables.push_back(Root("Movie", s(150), 1.35));
  d.tables.push_back(Root("Star", s(90), 1.3));
  d.tables.push_back(Entity("Trailer", {"Movie"}, s(120), 1.4));
  d.tables.push_back(Activity("Movie_Comment", {"Movie", "User"}, s(500), 1.55));
  d.tables.push_back(Activity("Movie_Seen", {"Movie", "User"}, s(700), 1.6));
  d.tables.push_back(Activity("Movie_Watching", {"Movie", "User"}, s(250), 1.5));
  d.tables.push_back(Activity("Movie_Wish", {"Movie", "User"}, s(350), 1.55));
  // Review and Photo are post tables that also reference Movie, so they
  // join the (Movie, User) coappear group like in Fig. 23.
  d.tables.push_back(Post("Review", {"User", "Movie"}, s(180), 1.5));
  d.tables.push_back(Post("Photo", {"User", "Movie"}, s(200), 1.5));
  d.tables.push_back(Activity("Movie_Actor", {"Star", "Movie"}, s(300), 1.35));
  d.tables.push_back(Activity("Movie_Script", {"Star", "Movie"}, s(120), 1.3));
  d.tables.push_back(Activity("Movie_Director", {"Star", "Movie"}, s(140), 1.3));
  d.tables.push_back(Response("Review_Comment", "Review", "User", s(320), 1.55));
  d.tables.push_back(Response("Photo_Comment", "Photo", "User", s(280), 1.5));
  d.tables.push_back(Activity("Trailer_Comment", {"Trailer", "User"}, s(180), 1.45));
  d.tables.push_back(Activity("Star_Fan", {"Star", "User"}, s(240), 1.45));
  return d;
}

DatasetBlueprint DoubanBookLike(double scale) {
  DatasetBlueprint d;
  d.name = "DoubanBookLike";
  d.user_table = "User";
  auto s = [scale](int64_t base) { return Scaled(scale, base); };
  d.tables.push_back(Root("User", s(240), 1.45, UserAttrs()));
  d.tables.push_back(Root("Author", s(80), 1.3));
  d.tables.push_back(Entity("Book", {"Author"}, s(160), 1.4));
  d.tables.push_back(Activity("Book_Comment", {"Book", "User"}, s(450), 1.55));
  d.tables.push_back(Activity("Book_Reading", {"Book", "User"}, s(300), 1.5));
  d.tables.push_back(Activity("Book_Read", {"Book", "User"}, s(550), 1.6));
  d.tables.push_back(Activity("Book_Wish", {"Book", "User"}, s(280), 1.5));
  d.tables.push_back(Post("Diary", {"User", "Book"}, s(140), 1.5));
  d.tables.push_back(Post("Review", {"User", "Book"}, s(170), 1.5));
  d.tables.push_back(Response("Diary_Comment", "Diary", "User", s(240), 1.5));
  d.tables.push_back(Response("Review_Comment", "Review", "User", s(300), 1.55));
  d.tables.push_back(Activity("User_Fan", {"User", "User"}, s(260), 1.5));
  return d;
}

DatasetBlueprint DoubanMusicLike(double scale) {
  DatasetBlueprint d;
  d.name = "DoubanMusicLike";
  d.user_table = "User";
  auto s = [scale](int64_t base) { return Scaled(scale, base); };
  d.tables.push_back(Root("User", s(220), 1.45, UserAttrs()));
  d.tables.push_back(Root("Artist", s(70), 1.3));
  d.tables.push_back(Entity("Album", {"Artist"}, s(180), 1.4));
  d.tables.push_back(Activity("Album_Comment", {"Album", "User"}, s(380), 1.55));
  d.tables.push_back(Activity("Album_Listening", {"Album", "User"}, s(260), 1.5));
  d.tables.push_back(Activity("Album_Heard", {"Album", "User"}, s(480), 1.6));
  d.tables.push_back(Activity("Album_Wish", {"Album", "User"}, s(240), 1.5));
  d.tables.push_back(Post("Review", {"User", "Album"}, s(150), 1.5));
  d.tables.push_back(Response("Review_Comment", "Review", "User", s(280), 1.55));
  d.tables.push_back(Activity("Artist_Fan", {"Artist", "User"}, s(200), 1.45));
  d.tables.push_back(Activity("User_Fan", {"User", "User"}, s(230), 1.5));
  return d;
}

}  // namespace aspect
